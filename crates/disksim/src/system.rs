//! The event-driven storage-system engine.

use crate::calendar::{ArrivalQueue, TimeKey};
use crate::disk::{Disk, DiskSpec};
use crate::error::SimError;
use crate::raid::{PhysOp, RaidConfig, RaidLevel};
use crate::request::{Completion, Request, RequestKind};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use units::{Rpm, Seconds};

/// Queue-dispatch policy at each disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Scheduler {
    /// First-come-first-served.
    Fcfs,
    /// Shortest-seek-time-first (era SCSI firmware default; ours too).
    #[default]
    Sstf,
    /// Circular elevator (C-LOOK): sweep outward, wrap to the lowest
    /// pending cylinder.
    Elevator,
}

/// Configuration of a whole storage system: `disks` identical members,
/// every one a `spec` disk. The spec is shared, so an owner that builds
/// many systems of one disk holds it once.
///
/// # Examples
///
/// ```
/// use disksim::{DiskSpec, RaidConfig, RaidLevel, SystemConfig};
/// use units::Rpm;
///
/// // The paper's RAID-5 systems: stripe of 16 512-byte blocks.
/// let cfg = SystemConfig::raid5(DiskSpec::era_2001(Rpm::new(10_000.0)), 8, 16)?;
/// assert_eq!(cfg.disks, 8);
/// # Ok::<(), disksim::SimError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// The disk every member is.
    pub spec: Arc<DiskSpec>,
    /// Member disks.
    pub disks: u32,
    /// Optional striping layer over the members.
    pub raid: Option<RaidConfig>,
    /// Dispatch policy.
    pub scheduler: Scheduler,
}

impl SystemConfig {
    /// One stand-alone disk.
    pub fn single_disk(spec: impl Into<Arc<DiskSpec>>) -> Self {
        Self::jbod(spec, 1)
    }

    /// `n` independent disks (no striping): requests address each disk
    /// by its device index.
    pub fn jbod(spec: impl Into<Arc<DiskSpec>>, n: u32) -> Self {
        Self {
            spec: spec.into(),
            disks: n,
            raid: None,
            scheduler: Scheduler::default(),
        }
    }

    /// `n` identical disks striped as RAID-5 in units of `stripe`
    /// sectors.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError::BadConfig`] for fewer than three disks or
    /// a zero stripe.
    pub fn raid5(spec: impl Into<Arc<DiskSpec>>, n: u32, stripe: u32) -> Result<Self, SimError> {
        let raid = Some(RaidConfig::new(RaidLevel::Raid5, n, stripe)?);
        Ok(Self {
            raid,
            ..Self::jbod(spec, n)
        })
    }

    /// `n` identical disks striped as RAID-0 in units of `stripe`
    /// sectors.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError::BadConfig`] for fewer than two disks or a
    /// zero stripe.
    pub fn raid0(spec: impl Into<Arc<DiskSpec>>, n: u32, stripe: u32) -> Result<Self, SimError> {
        let raid = Some(RaidConfig::new(RaidLevel::Raid0, n, stripe)?);
        Ok(Self {
            raid,
            ..Self::jbod(spec, n)
        })
    }

    /// Replaces the scheduler.
    pub fn with_scheduler(mut self, scheduler: Scheduler) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Enables controller write-back caching on the RAID layer (no-op
    /// for JBOD systems).
    pub fn with_write_back(mut self, write_back: bool) -> Self {
        if let Some(raid) = self.raid.take() {
            self.raid = Some(raid.with_write_back(write_back));
        }
        self
    }

    /// [`StorageSystem::logical_sectors`] without building the system,
    /// after the checks every construction and restore runs.
    ///
    /// # Errors
    ///
    /// [`SimError::BadConfig`] when there are no members or the RAID
    /// layout disagrees with the member count.
    pub fn logical_sectors(&self) -> Result<u64, SimError> {
        if self.disks == 0 {
            return Err(SimError::BadConfig("no disks".into()));
        }
        let per_disk = self.spec.geometry().total_sectors().get();
        match &self.raid {
            Some(raid) if raid.disks() != self.disks => Err(SimError::BadConfig(format!(
                "raid expects {} disks, {} configured",
                raid.disks(),
                self.disks
            ))),
            Some(raid) => Ok(raid.logical_sectors(per_disk)),
            None => Ok(per_disk),
        }
    }
}

/// The null slab index.
const NIL: u32 = u32::MAX;

/// A physical sub-request in flight. `parent_slot` indexes the parent
/// slab; it is `NIL` when no gating parent exists (write-back
/// acknowledgements) and is only dereferenced by gating operations,
/// whose parent cannot be freed before they complete.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct PhysRequest {
    parent_slot: u32,
    lba: u64,
    sectors: u32,
    kind: RequestKind,
    gates_completion: bool,
}

/// Book-keeping for a logical request split across members, held in a
/// free-listed slab (`StorageSystem::parents`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct Parent {
    request: Request,
    remaining: u32,
    first_start: Option<Seconds>,
}

/// One queued physical request in the shared slot slab, linked into its
/// disk's intrusive queue. The physical location is resolved once at
/// enqueue (geometry is fixed after construction), so scheduler scans
/// never re-derive the cylinder and dispatch skips the zone-table
/// lookup entirely.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct QueueSlot {
    phys: PhysRequest,
    loc: diskgeom::Location,
    prev: u32,
    next: u32,
}

/// Head/tail of one disk's queue in the slot slab. Links run in arrival
/// order, which FCFS (and tie-breaking in the other policies) depends on.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct DiskQueue {
    head: u32,
    tail: u32,
    len: u32,
}

impl DiskQueue {
    const EMPTY: Self = Self {
        head: NIL,
        tail: NIL,
        len: 0,
    };
}

/// The simulated storage system.
///
/// Drive it either in one shot ([`StorageSystem::drain`]) or
/// incrementally ([`StorageSystem::advance_to`]) — the incremental form
/// is what the DTM policies use to interleave thermal decisions with I/O.
#[derive(Debug)]
pub struct StorageSystem {
    /// The members' shared spec, their count, the RAID layout and the
    /// scheduler, as built.
    config: SystemConfig,
    /// The spindle speed every member runs at.
    rpm: Rpm,
    disks: Vec<Disk>,
    logical_sectors: u64,
    /// Pending arrivals, ordered by (arrival time, submission sequence).
    arrivals: ArrivalQueue<Request>,
    /// All queued physical requests, one slab shared by every disk;
    /// `disk_queues` threads per-disk lists through it and `slot_free`
    /// recycles indices, so steady-state queueing allocates nothing.
    slots: Vec<QueueSlot>,
    slot_free: Vec<u32>,
    disk_queues: Vec<DiskQueue>,
    in_service: Vec<Option<(Seconds, PhysRequest)>>,
    parents: Vec<Parent>,
    parent_free: Vec<u32>,
    clock: Seconds,
    completions: Vec<Completion>,
    seq: u64,
    submitted: u64,
    finished: u64,
    failed_disk: Option<u32>,
    /// Trace emission point. Defaults to the null sink: request
    /// issue/complete events then cost one branch and are never built.
    sink: diskobs::Sink,
    /// RAID fan-out scratch, reused across arrivals.
    op_scratch: Vec<PhysOp>,
    /// Disks touched by the current arrival, reused across arrivals.
    touched_scratch: Vec<u32>,
}

impl StorageSystem {
    /// Assembles a system whose members all spin at the spec's speed.
    ///
    /// # Errors
    ///
    /// [`SimError::BadConfig`] when the RAID layout disagrees with the
    /// member count or there are no members.
    pub fn new(config: SystemConfig) -> Result<Self, SimError> {
        let logical_sectors = config.logical_sectors()?;
        let n = config.disks as usize;
        Ok(Self {
            disks: (0..n).map(|_| Disk::new(&config.spec)).collect(),
            rpm: config.spec.rpm(),
            config,
            logical_sectors,
            arrivals: ArrivalQueue::new(),
            slots: Vec::new(),
            slot_free: Vec::new(),
            disk_queues: vec![DiskQueue::EMPTY; n],
            in_service: vec![None; n],
            parents: Vec::new(),
            parent_free: Vec::new(),
            clock: Seconds::ZERO,
            completions: Vec::new(),
            seq: 0,
            submitted: 0,
            finished: 0,
            failed_disk: None,
            sink: diskobs::Sink::null(),
            op_scratch: Vec::new(),
            touched_scratch: Vec::new(),
        })
    }

    /// Marks a RAID-5 member as failed: subsequent requests map through
    /// degraded-mode reconstruction. Requests already queued or in
    /// service on the member complete normally (the failure takes effect
    /// at the mapping layer).
    ///
    /// # Errors
    ///
    /// [`SimError::BadConfig`] when the system is not RAID-5,
    /// [`SimError::NoSuchDevice`] when the index is out of range, and
    /// [`SimError::AlreadyDegraded`] when a member is already failed
    /// (RAID-5 survives exactly one loss).
    pub fn fail_disk(&mut self, disk: u32) -> Result<(), SimError> {
        match &self.config.raid {
            Some(raid) if matches!(raid.level(), RaidLevel::Raid5) => {
                if disk >= raid.disks() {
                    return Err(SimError::NoSuchDevice {
                        device: disk,
                        available: raid.disks(),
                    });
                }
                if let Some(device) = self.failed_disk {
                    return Err(SimError::AlreadyDegraded { device });
                }
                self.failed_disk = Some(disk);
                Ok(())
            }
            _ => Err(SimError::BadConfig(
                "degraded mode requires a RAID-5 system".into(),
            )),
        }
    }

    /// Clears the failed-member mark after a completed rebuild: the
    /// array maps requests normally again. A no-op on a healthy system.
    pub fn repair_disk(&mut self) {
        self.failed_disk = None;
    }

    /// The failed member, if any.
    pub fn failed_disk(&self) -> Option<u32> {
        self.failed_disk
    }

    /// Addressable sectors of the logical volume (or of each member for
    /// a JBOD system).
    pub fn logical_sectors(&self) -> u64 {
        self.logical_sectors
    }

    /// The member disks (for inspecting activity counters).
    pub fn disks(&self) -> &[Disk] {
        &self.disks
    }

    /// The spindle speed every member runs at.
    pub fn rpm(&self) -> Rpm {
        self.rpm
    }

    /// Sets the spindle speed every member runs at (multi-speed DTM
    /// control), emitting one `RpmTransition` into the trace sink when
    /// it changes. Caches and head positions are kept.
    pub fn set_rpm(&mut self, rpm: Rpm) {
        let from = std::mem::replace(&mut self.rpm, rpm);
        if from != rpm {
            let drive = self.sink.scope();
            self.sink
                .emit(self.clock, || diskobs::Event::RpmTransition {
                    drive,
                    from: from.get(),
                    to: rpm.get(),
                });
        }
    }

    /// Current simulated time.
    pub fn clock(&self) -> Seconds {
        self.clock
    }

    /// Replaces the trace sink (null by default). Drivers that shard
    /// systems across threads install a buffer sink per system and
    /// drain the buffers in a deterministic serial order.
    pub fn set_sink(&mut self, sink: diskobs::Sink) {
        self.sink = sink;
    }

    /// Appends this system's buffered trace events to `out` (none unless
    /// a buffer sink is installed); epoch merge loops reuse one batch
    /// buffer across drives and epochs.
    pub fn drain_events_into(&mut self, out: &mut Vec<diskobs::TimedEvent>) {
        self.sink.drain_into(out);
    }

    /// Requests submitted and finished so far.
    pub fn in_flight(&self) -> u64 {
        self.submitted - self.finished
    }

    /// Queues a request for arrival. Arrivals earlier than the current
    /// clock are treated as arriving now.
    ///
    /// # Errors
    ///
    /// [`SimError::NoSuchDevice`] / [`SimError::OutOfRange`] when the
    /// request does not fit the system.
    pub fn submit(&mut self, request: Request) -> Result<(), SimError> {
        if self.config.raid.is_some() {
            if request.device != 0 {
                return Err(SimError::NoSuchDevice {
                    device: request.device,
                    available: 1,
                });
            }
        } else if request.device as usize >= self.disks.len() {
            return Err(SimError::NoSuchDevice {
                device: request.device,
                available: self.disks.len() as u32,
            });
        }
        if request.end_lba() > self.logical_sectors {
            return Err(SimError::OutOfRange {
                lba: request.lba,
                sectors: request.sectors,
                capacity: self.logical_sectors,
            });
        }
        self.seq += 1;
        self.submitted += 1;
        self.arrivals
            .push(TimeKey::new(request.arrival.get(), self.seq), request);
        Ok(())
    }

    /// Advances the simulation until every queued event at or before
    /// `target` has been processed, returning the completions produced.
    pub fn advance_to(&mut self, target: Seconds) -> Vec<Completion> {
        let mut out = Vec::new();
        self.advance_to_into(target, &mut out);
        out
    }

    /// Like [`Self::advance_to`], but appends the completions to `out` —
    /// callers that advance in a tight window loop (the DTM controller
    /// steps every 250 ms) reuse one buffer instead of allocating a
    /// fresh `Vec` per window.
    pub fn advance_to_into(&mut self, target: Seconds, out: &mut Vec<Completion>) {
        loop {
            let next_completion = self
                .in_service
                .iter()
                .enumerate()
                .filter_map(|(d, s)| s.map(|(finish, _)| (finish, d)))
                .min_by(|a, b| a.0.get().total_cmp(&b.0.get()));
            let next_arrival = self.arrivals.peek().map(|k| k.time());

            // Completions win ties so the disk frees up before the
            // simultaneous arrival is routed.
            let take_completion = match (next_completion, next_arrival) {
                (Some((f, _)), Some(a)) => f.get() <= a,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };

            if take_completion {
                let (finish, d) = next_completion.expect("checked above");
                if finish > target {
                    break;
                }
                self.clock = self.clock.max(finish);
                self.on_completion(d);
            } else {
                let arrival = next_arrival.expect("checked above");
                if arrival > target.get() {
                    break;
                }
                let (_, request) = self.arrivals.pop().expect("peeked");
                self.clock = self.clock.max(Seconds::new(arrival));
                self.on_arrival(request);
            }
        }
        // Advance the clock to the target, but never to the infinite
        // horizon drain() uses — the clock must remain a meaningful
        // denominator for utilization after a full drain.
        if target.get().is_finite() {
            self.clock = self.clock.max(target);
        }
        out.append(&mut self.completions);
    }

    /// Runs until every submitted request has completed.
    pub fn drain(&mut self) -> Vec<Completion> {
        let mut out = Vec::new();
        self.drain_into(&mut out);
        out
    }

    /// Like [`Self::drain`], but appends the completions to `out` so
    /// repeated drains reuse one buffer.
    pub fn drain_into(&mut self, out: &mut Vec<Completion>) {
        loop {
            self.advance_to_into(Seconds::new(f64::INFINITY), out);
            if self.arrivals.is_empty() && self.in_service.iter().all(Option::is_none) {
                break;
            }
        }
    }

    /// Earliest pending event time, if any: the earliest in-service
    /// completion or the arrival queue's front, whichever comes first.
    pub fn next_event_time(&self) -> Option<Seconds> {
        let completion = self
            .in_service
            .iter()
            .filter_map(|s| s.map(|(f, _)| f.get()))
            .fold(f64::INFINITY, f64::min);
        let arrival = self.arrivals.peek().map_or(f64::INFINITY, |k| k.time());
        let t = completion.min(arrival);
        t.is_finite().then(|| Seconds::new(t))
    }

    fn on_arrival(&mut self, request: Request) {
        self.sink.emit(self.clock, || diskobs::Event::RequestIssue {
            id: request.id,
            device: request.device,
            lba: request.lba,
            sectors: request.sectors,
            kind: if request.kind.is_read() { "read" } else { "write" },
        });
        // Take-then-reassign keeps the scratch buffers' capacity while
        // freeing `self` for the enqueue/dispatch calls below.
        let mut ops = std::mem::take(&mut self.op_scratch);
        ops.clear();
        match &self.config.raid {
            Some(raid) => raid.map_degraded_into(
                request.lba,
                request.sectors,
                request.kind,
                self.failed_disk,
                &mut ops,
            ),
            None => ops.push(PhysOp {
                disk: request.device,
                lba: request.lba,
                sectors: request.sectors,
                kind: request.kind,
                gates_completion: true,
            }),
        }
        let gating = ops.iter().filter(|p| p.gates_completion).count() as u32;
        let parent_slot = if gating == 0 {
            // Write-back caching: the controller acknowledges the host
            // immediately; the physical work proceeds in the background.
            self.finished += 1;
            let done = Completion {
                request,
                start: self.clock,
                finish: self.clock,
            };
            self.sink.emit(self.clock, || diskobs::Event::RequestComplete {
                id: done.request.id,
                start: done.start.get(),
                response_ms: done.response_time().to_millis(),
            });
            self.completions.push(done);
            NIL
        } else {
            self.alloc_parent(Parent {
                request,
                remaining: gating,
                first_start: None,
            })
        };
        let mut touched = std::mem::take(&mut self.touched_scratch);
        touched.clear();
        for op in &ops {
            // Consecutive dedup, matching the order the fan-out lists
            // disks in.
            if touched.last() != Some(&op.disk) {
                touched.push(op.disk);
            }
        }
        for op in &ops {
            self.enqueue(
                op.disk as usize,
                PhysRequest {
                    parent_slot,
                    lba: op.lba,
                    sectors: op.sectors,
                    kind: op.kind,
                    gates_completion: op.gates_completion,
                },
            );
        }
        self.op_scratch = ops;
        for &d in &touched {
            self.try_dispatch(d as usize);
        }
        self.touched_scratch = touched;
    }

    fn on_completion(&mut self, d: usize) {
        let (finish, phys) = self.in_service[d].take().expect("disk was busy");
        self.clock = self.clock.max(finish);
        if phys.gates_completion {
            let slot = phys.parent_slot as usize;
            self.parents[slot].remaining -= 1;
            if self.parents[slot].remaining == 0 {
                let parent = self.parents[slot];
                self.parent_free.push(phys.parent_slot);
                self.finished += 1;
                let done = Completion {
                    request: parent.request,
                    start: parent.first_start.unwrap_or(finish),
                    finish,
                };
                self.sink.emit(finish, || diskobs::Event::RequestComplete {
                    id: done.request.id,
                    start: done.start.get(),
                    response_ms: done.response_time().to_millis(),
                });
                self.completions.push(done);
            }
        }
        self.try_dispatch(d);
    }

    /// Stores `parent` in the slab, recycling a freed slot when one
    /// exists.
    fn alloc_parent(&mut self, parent: Parent) -> u32 {
        match self.parent_free.pop() {
            Some(i) => {
                self.parents[i as usize] = parent;
                i
            }
            None => {
                self.parents.push(parent);
                (self.parents.len() - 1) as u32
            }
        }
    }

    /// Appends `phys` to disk `d`'s queue (slab slot linked at the
    /// tail, so list order is arrival order).
    fn enqueue(&mut self, d: usize, phys: PhysRequest) {
        let loc = self
            .config
            .spec
            .geometry()
            .locate(phys.lba)
            .expect("physical requests are range-checked at submit");
        let tail = self.disk_queues[d].tail;
        let slot = QueueSlot {
            phys,
            loc,
            prev: tail,
            next: NIL,
        };
        let idx = match self.slot_free.pop() {
            Some(i) => {
                self.slots[i as usize] = slot;
                i
            }
            None => {
                self.slots.push(slot);
                (self.slots.len() - 1) as u32
            }
        };
        if tail == NIL {
            self.disk_queues[d].head = idx;
        } else {
            self.slots[tail as usize].next = idx;
        }
        self.disk_queues[d].tail = idx;
        self.disk_queues[d].len += 1;
    }

    /// Unlinks `slot` from disk `d`'s queue and recycles it. O(1),
    /// replacing the old order-preserving `Vec::remove` memmove.
    fn unlink(&mut self, d: usize, slot: u32) {
        let QueueSlot { prev, next, .. } = self.slots[slot as usize];
        if prev == NIL {
            self.disk_queues[d].head = next;
        } else {
            self.slots[prev as usize].next = next;
        }
        if next == NIL {
            self.disk_queues[d].tail = prev;
        } else {
            self.slots[next as usize].prev = prev;
        }
        self.disk_queues[d].len -= 1;
        self.slot_free.push(slot);
    }

    fn try_dispatch(&mut self, d: usize) {
        if self.in_service[d].is_some() || self.disk_queues[d].len == 0 {
            return;
        }
        let slot = self.pick(d);
        let QueueSlot { phys, loc, .. } = self.slots[slot as usize];
        self.unlink(d, slot);
        let start = self.clock;
        let (finish, _breakdown) = self.disks[d].service(
            &self.config.spec,
            self.rpm,
            loc,
            phys.lba,
            phys.sectors,
            phys.kind,
            start,
        );
        if phys.gates_completion {
            // Deferred parity work can outlive its parent; only gating
            // operations contribute to the parent's service window.
            let parent = &mut self.parents[phys.parent_slot as usize];
            parent.first_start = Some(parent.first_start.unwrap_or(start).min(start));
        }
        self.in_service[d] = Some((finish, phys));
    }

    /// Chooses which queued request the disk serves next, returning its
    /// slot. Walks the disk's list in arrival order with strict-`<`
    /// comparisons, so ties resolve to the earliest arrival — exactly
    /// the first-minimum semantics of the old `Vec` + `min_by_key` scan.
    fn pick(&self, d: usize) -> u32 {
        let queue = self.disk_queues[d];
        if queue.len == 1 {
            return queue.head;
        }
        match self.config.scheduler {
            Scheduler::Fcfs => queue.head,
            Scheduler::Sstf => {
                let head = self.disks[d].head_cylinder();
                let mut best = queue.head;
                let mut best_dist = self.slots[best as usize].loc.cylinder.abs_diff(head);
                let mut cur = self.slots[best as usize].next;
                while cur != NIL {
                    let s = &self.slots[cur as usize];
                    let dist = s.loc.cylinder.abs_diff(head);
                    if dist < best_dist {
                        best = cur;
                        best_dist = dist;
                    }
                    cur = s.next;
                }
                best
            }
            Scheduler::Elevator => {
                let head = self.disks[d].head_cylinder();
                // C-LOOK: nearest cylinder at or past the head, else wrap
                // to the lowest pending cylinder.
                let first_cyl = self.slots[queue.head as usize].loc.cylinder;
                let mut lowest = queue.head;
                let mut lowest_cyl = first_cyl;
                let (mut ahead, mut ahead_cyl) = if first_cyl >= head {
                    (queue.head, first_cyl)
                } else {
                    (NIL, u32::MAX)
                };
                let mut cur = self.slots[queue.head as usize].next;
                while cur != NIL {
                    let s = &self.slots[cur as usize];
                    if s.loc.cylinder >= head && (ahead == NIL || s.loc.cylinder < ahead_cyl) {
                        ahead = cur;
                        ahead_cyl = s.loc.cylinder;
                    }
                    if s.loc.cylinder < lowest_cyl {
                        lowest = cur;
                        lowest_cyl = s.loc.cylinder;
                    }
                    cur = s.next;
                }
                if ahead != NIL {
                    ahead
                } else {
                    lowest
                }
            }
        }
    }
}

/// Complete dynamic state of a [`StorageSystem`], captured for
/// checkpointing. Covers every field the event loop reads — disks
/// (mechanical position, cache, activity counters), the spindle speed,
/// the arrival queue (as its sorted entry list, including each entry's
/// submission-sequence tie-breaker), the queued-request slab with its
/// free list, per-disk intrusive queues, in-service operations, the
/// parent slab and free list, the failed member and the scalar
/// counters. The owner keeps the configuration (disk spec, member
/// count, RAID layout, scheduler) and hands it back to
/// [`StorageSystem::restore_state`]. The trace sink and the two scratch
/// buffers are excluded: the sink is an observation channel re-attached
/// by the owner, and the scratches are empty between events.
///
/// Restoring this state and advancing produces byte-identical output
/// to advancing the original system: slabs and free lists are copied
/// structurally, so even allocation patterns match.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemState {
    disks: Vec<Disk>,
    rpm: Rpm,
    arrivals: Vec<(TimeKey, Request)>,
    slots: Vec<QueueSlot>,
    slot_free: Vec<u32>,
    disk_queues: Vec<DiskQueue>,
    in_service: Vec<Option<(Seconds, PhysRequest)>>,
    parents: Vec<Parent>,
    parent_free: Vec<u32>,
    clock: Seconds,
    completions: Vec<Completion>,
    seq: u64,
    submitted: u64,
    finished: u64,
    failed_disk: Option<u32>,
}

/// Set in a slot's zone index while [`SystemState::check_slabs`] runs,
/// marking the slot as on a list: no zone index has this bit.
const LISTED: u32 = 1 << 31;
/// A freed parent's `remaining` while [`SystemState::check_slabs`] runs:
/// a freed parent awaits nothing, so its count is always zero.
const FREED: u32 = u32::MAX;

impl SystemState {
    /// Checks what the event loop relies on and never re-checks:
    ///
    /// - the clock is finite and not negative, and no more requests
    ///   finished than were submitted; those in flight are the pending
    ///   arrivals plus the live parents;
    /// - each pending arrival is keyed by its own arrival time, and each
    ///   buffered completion's times lie in order up to the clock;
    /// - every slot of the slot slab is on exactly one list, a disk
    ///   queue or the free list; each queue's `prev` links mirror its
    ///   `next` links, its tail is its last slot and its length is its
    ///   slot count; each queued operation is a non-empty run inside
    ///   the disk, at the location its LBA resolves to;
    /// - the parent free list names distinct parents that await
    ///   nothing; each gating operation, queued or in service, names a
    ///   live parent (parity work that gates nothing may outlive its
    ///   parent), and each live parent's `remaining` counts its
    ///   outstanding gating operations;
    /// - an in-service operation finishes at a finite time no earlier
    ///   than the clock, and a live parent arrived and first started no
    ///   later than the clock.
    ///
    /// One pass over each slab and one more to clear the marks it sets
    /// in place ([`LISTED`], [`FREED`]), so restoring allocates
    /// nothing. On an error the marks stay: the state is discarded.
    fn check_slabs(&mut self, spec: &DiskSpec) -> Result<(), String> {
        let clock = self.clock;
        if !(clock.get().is_finite() && clock.get() >= 0.0) {
            return Err(format!("clock {clock} is not finite and non-negative"));
        }
        if self.finished > self.submitted {
            return Err("more requests finished than submitted".into());
        }
        let keyed_off =
            |(key, r): &(TimeKey, Request)| key.time().to_bits() != r.arrival.get().to_bits();
        if self.arrivals.iter().any(keyed_off) {
            return Err("a pending arrival is keyed off its arrival time".into());
        }
        for c in &self.completions {
            let times = [c.request.arrival, c.start, c.finish, clock].map(Seconds::get);
            if !(times[0].is_finite() && times.windows(2).all(|w| w[0] <= w[1])) {
                return Err("a buffered completion's times are out of order".into());
            }
        }
        let Self {
            slots,
            slot_free,
            disk_queues,
            in_service,
            parents,
            parent_free,
            ..
        } = self;
        if slots.iter().any(|s| s.loc.zone & LISTED != 0) {
            return Err("a slot's zone is out of range".into());
        }
        if parents.iter().any(|p| p.remaining == FREED) {
            return Err("a parent awaits too many operations".into());
        }
        for &i in parent_free.iter() {
            match parents.get_mut(i as usize) {
                Some(p) if p.remaining == 0 => p.remaining = FREED,
                _ => {
                    return Err(format!(
                        "parent {i} is out of range, freed twice or awaited"
                    ))
                }
            }
        }
        if parents.iter().any(|p| p.remaining == 0) {
            return Err("a live parent awaits no operation".into());
        }
        // Each gating operation takes one from its live parent's count.
        let gate = |parents: &mut [Parent], phys: &PhysRequest| {
            if !phys.gates_completion {
                return Ok(());
            }
            let p = phys.parent_slot;
            match parents.get_mut(p as usize) {
                Some(parent) if parent.remaining != FREED => {
                    parent.remaining = parent.remaining.checked_sub(1).ok_or_else(|| {
                        format!("parent {p} has more gating operations than it awaits")
                    })?;
                    Ok(())
                }
                _ => Err(format!(
                    "a gating operation's parent {p} is free or out of range"
                )),
            }
        };
        let geometry = spec.geometry();
        let sectors = geometry.total_sectors().get();
        for q in disk_queues.iter() {
            let (mut prev, mut cur, mut len) = (NIL, q.head, 0u32);
            while cur != NIL {
                let slot = match slots.get_mut(cur as usize) {
                    Some(slot) if len < q.len && slot.loc.zone & LISTED == 0 => slot,
                    _ => return Err(format!("disk queue reaches slot {cur} out of turn")),
                };
                if slot.prev != prev {
                    return Err(format!("slot {cur}'s prev link does not mirror its queue"));
                }
                let phys = slot.phys;
                let end = phys.lba.checked_add(phys.sectors.into());
                let inside = phys.sectors > 0 && end.is_some_and(|e| e <= sectors);
                if !inside || geometry.locate(phys.lba) != Some(slot.loc) {
                    return Err(format!("slot {cur} is not a run at its own location"));
                }
                slot.loc.zone |= LISTED;
                (prev, cur, len) = (cur, slot.next, len + 1);
                gate(parents, &phys)?;
            }
            if len != q.len || q.tail != prev {
                return Err("disk queue length or tail mismatch".into());
            }
        }
        for &i in slot_free.iter() {
            match slots.get_mut(i as usize) {
                Some(slot) if slot.loc.zone & LISTED == 0 => slot.loc.zone |= LISTED,
                _ => return Err(format!("free slot {i} is out of range or on two lists")),
            }
        }
        for (finish, phys) in in_service.iter().flatten() {
            if !(finish.get().is_finite() && *finish >= clock) {
                return Err(format!(
                    "in-service finish {finish} is not finite or before the clock"
                ));
            }
            gate(parents, phys)?;
        }
        let mut live = 0;
        for parent in parents.iter_mut() {
            match parent.remaining {
                FREED => parent.remaining = 0,
                0 => {
                    live += 1;
                    let start = parent.first_start.unwrap_or(parent.request.arrival);
                    if !(parent.request.arrival <= start && start <= clock) {
                        return Err("a live parent arrived or started after the clock".into());
                    }
                }
                n => return Err(format!("a live parent awaits {n} more operations")),
            }
        }
        if self.submitted - self.finished != self.arrivals.len() as u64 + live {
            return Err(format!(
                "{} requests in flight, but {} pending arrivals and {live} live parents",
                self.submitted - self.finished,
                self.arrivals.len()
            ));
        }
        // Clear the marks: every slot was listed once, and each live
        // parent awaits its gating operations again.
        for slot in slots.iter_mut() {
            if slot.loc.zone & LISTED == 0 {
                return Err("a slot is on no list".into());
            }
            slot.loc.zone &= !LISTED;
        }
        for q in disk_queues.iter() {
            let mut cur = q.head;
            while cur != NIL {
                let phys = slots[cur as usize].phys;
                if phys.gates_completion {
                    parents[phys.parent_slot as usize].remaining += 1;
                }
                cur = slots[cur as usize].next;
            }
        }
        for (_, phys) in in_service.iter().flatten() {
            if phys.gates_completion {
                parents[phys.parent_slot as usize].remaining += 1;
            }
        }
        Ok(())
    }
}

impl StorageSystem {
    /// Captures the complete dynamic state for checkpointing.
    pub fn capture_state(&self) -> SystemState {
        SystemState {
            disks: self.disks.clone(),
            rpm: self.rpm,
            arrivals: self.arrivals.sorted_entries(),
            slots: self.slots.clone(),
            slot_free: self.slot_free.clone(),
            disk_queues: self.disk_queues.clone(),
            in_service: self.in_service.clone(),
            parents: self.parents.clone(),
            parent_free: self.parent_free.clone(),
            clock: self.clock,
            completions: self.completions.clone(),
            seq: self.seq,
            submitted: self.submitted,
            finished: self.finished,
            failed_disk: self.failed_disk,
        }
    }

    /// Rebuilds a system of `config` from a state captured from one,
    /// running the checks [`Self::new`] runs without its allocations:
    /// the captured buffers move in. The trace sink starts null; callers
    /// that traced the original re-install their sink afterwards.
    ///
    /// # Errors
    ///
    /// As [`Self::new`], and [`SimError::BadConfig`] when the state does
    /// not fit `config` (per-disk vectors of another length, a failed
    /// member [`Self::fail_disk`] would refuse), its speed is not
    /// positive and finite, or its slabs do not hold together: a slot on
    /// no list or on two, queue links that do not mirror, a gating
    /// operation without a live parent, a parent awaiting another count
    /// of operations, a time out of order with the clock — the shapes a
    /// corrupted checkpoint body produces. The checks take one pass over
    /// each slab.
    pub fn restore_state(config: SystemConfig, mut state: SystemState) -> Result<Self, SimError> {
        let logical_sectors = config.logical_sectors()?;
        let n = config.disks as usize;
        if state.disks.len() != n || state.disk_queues.len() != n || state.in_service.len() != n {
            return Err(SimError::BadConfig(format!(
                "state shape mismatch: {n} members, {} disks, {} queues, {} service slots",
                state.disks.len(),
                state.disk_queues.len(),
                state.in_service.len()
            )));
        }
        if !(state.rpm.get() > 0.0 && state.rpm.is_finite()) {
            return Err(SimError::BadConfig(format!(
                "disk speed must be positive and finite, got {} RPM",
                state.rpm.get()
            )));
        }
        state
            .check_slabs(&config.spec)
            .map_err(SimError::BadConfig)?;
        let mut system = Self {
            config,
            rpm: state.rpm,
            disks: state.disks,
            logical_sectors,
            arrivals: ArrivalQueue::from_sorted_entries(state.arrivals),
            slots: state.slots,
            slot_free: state.slot_free,
            disk_queues: state.disk_queues,
            in_service: state.in_service,
            parents: state.parents,
            parent_free: state.parent_free,
            clock: state.clock,
            completions: state.completions,
            seq: state.seq,
            submitted: state.submitted,
            finished: state.finished,
            failed_disk: None,
            sink: diskobs::Sink::null(),
            op_scratch: Vec::new(),
            touched_scratch: Vec::new(),
        };
        if let Some(d) = state.failed_disk {
            let fail = |e| SimError::BadConfig(format!("restored failed member: {e}"));
            system.fail_disk(d).map_err(fail)?;
        }
        Ok(system)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use units::Rpm;

    fn spec() -> DiskSpec {
        DiskSpec::era_2001(Rpm::new(10_000.0))
    }

    fn read(id: u64, at_ms: f64, lba: u64) -> Request {
        Request::new(id, Seconds::from_millis(at_ms), 0, lba, 8, RequestKind::Read)
    }

    #[test]
    fn single_request_completes() {
        let mut sys = StorageSystem::new(SystemConfig::single_disk(spec())).unwrap();
        sys.submit(read(1, 0.0, 1_000)).unwrap();
        let done = sys.drain();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].request.id, 1);
        assert!(done[0].finish > done[0].start);
    }

    #[test]
    fn no_request_lost_or_duplicated() {
        let mut sys = StorageSystem::new(SystemConfig::single_disk(spec())).unwrap();
        let n = 500;
        for i in 0..n {
            sys.submit(read(i, i as f64 * 0.5, (i * 997_123) % 10_000_000))
                .unwrap();
        }
        let done = sys.drain();
        assert_eq!(done.len(), n as usize);
        let mut ids: Vec<u64> = done.iter().map(|c| c.request.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n as usize, "every id exactly once");
    }

    #[test]
    fn response_times_are_positive_and_causal() {
        let mut sys = StorageSystem::new(SystemConfig::single_disk(spec())).unwrap();
        for i in 0..100 {
            sys.submit(read(i, i as f64, (i * 5_000_321) % 20_000_000))
                .unwrap();
        }
        for c in sys.drain() {
            assert!(c.start >= c.request.arrival, "service precedes arrival");
            assert!(c.finish > c.start);
            assert!(c.response_time().get() > 0.0);
        }
    }

    #[test]
    fn queueing_shows_under_load() {
        // Saturate a single disk: response times must exceed pure
        // service times for later requests.
        let mut sys = StorageSystem::new(SystemConfig::single_disk(spec())).unwrap();
        for i in 0..50 {
            // All arrive at t=0; they must queue.
            sys.submit(read(i, 0.0, (i * 3_333_337) % 20_000_000)).unwrap();
        }
        let done = sys.drain();
        let max_response = done
            .iter()
            .map(|c| c.response_time().to_millis())
            .fold(0.0, f64::max);
        assert!(
            max_response > 50.0,
            "50 queued random requests should take >50 ms, got {max_response:.1}"
        );
    }

    #[test]
    fn jbod_devices_are_independent() {
        let mut sys = StorageSystem::new(SystemConfig::jbod(spec(), 4)).unwrap();
        for d in 0..4u32 {
            sys.submit(Request::new(
                d as u64,
                Seconds::ZERO,
                d,
                9_999_999,
                8,
                RequestKind::Read,
            ))
            .unwrap();
        }
        let done = sys.drain();
        assert_eq!(done.len(), 4);
        // All four served in parallel: finish times are equal (same
        // geometry, same LBA, same start).
        let finishes: Vec<f64> = done.iter().map(|c| c.finish.get()).collect();
        for f in &finishes {
            assert!((f - finishes[0]).abs() < 1e-12);
        }
    }

    #[test]
    fn bad_device_and_range_rejected() {
        let mut sys = StorageSystem::new(SystemConfig::single_disk(spec())).unwrap();
        let err = sys
            .submit(Request::new(1, Seconds::ZERO, 7, 0, 8, RequestKind::Read))
            .unwrap_err();
        assert!(matches!(err, SimError::NoSuchDevice { .. }));

        let total = sys.logical_sectors();
        let err = sys
            .submit(Request::new(2, Seconds::ZERO, 0, total, 8, RequestKind::Read))
            .unwrap_err();
        assert!(matches!(err, SimError::OutOfRange { .. }));

        // An end past u64::MAX must not wrap round into the volume.
        let err = sys
            .submit(Request::new(
                3,
                Seconds::ZERO,
                0,
                u64::MAX - 3,
                8,
                RequestKind::Read,
            ))
            .unwrap_err();
        assert!(matches!(err, SimError::OutOfRange { .. }), "{err}");
        assert!(err.to_string().contains(&u64::MAX.to_string()), "{err}");
        assert!(sys.drain().is_empty());
    }

    #[test]
    fn raid5_write_touches_two_disks() {
        let mut sys =
            StorageSystem::new(SystemConfig::raid5(spec(), 4, 16).unwrap()).unwrap();
        sys.submit(Request::new(1, Seconds::ZERO, 0, 0, 8, RequestKind::Write))
            .unwrap();
        let done = sys.drain();
        assert_eq!(done.len(), 1);
        let busy: Vec<bool> = sys
            .disks()
            .iter()
            .map(|d| d.busy_time().get() > 0.0)
            .collect();
        assert_eq!(busy.iter().filter(|b| **b).count(), 2, "data + parity disks");
    }

    #[test]
    fn raid0_spreads_load() {
        let mut sys =
            StorageSystem::new(SystemConfig::raid0(spec(), 4, 16).unwrap()).unwrap();
        // 64 requests covering consecutive stripe units.
        for i in 0..64u64 {
            sys.submit(Request::new(i, Seconds::ZERO, 0, i * 16, 16, RequestKind::Read))
                .unwrap();
        }
        let done = sys.drain();
        assert_eq!(done.len(), 64);
        for d in sys.disks() {
            assert!(d.served() >= 8, "striping should hit every member");
        }
    }

    #[test]
    fn sstf_beats_fcfs_on_random_load() {
        let run = |sched: Scheduler| -> f64 {
            let cfg = SystemConfig::single_disk(spec()).with_scheduler(sched);
            let mut sys = StorageSystem::new(cfg).unwrap();
            for i in 0..200u64 {
                sys.submit(read(i, 0.0, (i * 7_777_783) % 20_000_000)).unwrap();
            }
            let done = sys.drain();
            done.iter().map(|c| c.response_time().get()).sum::<f64>() / done.len() as f64
        };
        let fcfs = run(Scheduler::Fcfs);
        let sstf = run(Scheduler::Sstf);
        assert!(
            sstf < fcfs,
            "SSTF should cut mean response under backlog: {sstf:.4} vs {fcfs:.4}"
        );
    }

    #[test]
    fn elevator_also_beats_fcfs() {
        let run = |sched: Scheduler| -> f64 {
            let cfg = SystemConfig::single_disk(spec()).with_scheduler(sched);
            let mut sys = StorageSystem::new(cfg).unwrap();
            for i in 0..200u64 {
                sys.submit(read(i, 0.0, (i * 9_999_991) % 20_000_000)).unwrap();
            }
            let done = sys.drain();
            done.iter().map(|c| c.response_time().get()).sum::<f64>() / done.len() as f64
        };
        assert!(run(Scheduler::Elevator) < run(Scheduler::Fcfs));
    }

    #[test]
    fn advance_to_is_incremental() {
        let mut sys = StorageSystem::new(SystemConfig::single_disk(spec())).unwrap();
        for i in 0..10 {
            sys.submit(read(i, i as f64 * 100.0, (i * 3_000_000) % 20_000_000))
                .unwrap();
        }
        // Advance half-way: only the early requests are done.
        let first = sys.advance_to(Seconds::from_millis(450.0));
        assert!(!first.is_empty() && first.len() < 10);
        let rest = sys.drain();
        assert_eq!(first.len() + rest.len(), 10);
        assert_eq!(sys.in_flight(), 0);
    }

    #[test]
    fn mismatched_raid_member_count_rejected() {
        let cfg = SystemConfig {
            disks: 3,
            raid: Some(RaidConfig::new(RaidLevel::Raid5, 4, 16).unwrap()),
            ..SystemConfig::jbod(spec(), 3)
        };
        assert!(StorageSystem::new(cfg).is_err());
    }

    #[test]
    fn set_rpm_moves_every_member_and_the_restored_speed_is_checked() {
        let cfg = SystemConfig::raid5(spec(), 4, 16).unwrap();
        let mut sys = StorageSystem::new(cfg.clone()).unwrap();
        assert_eq!(sys.rpm(), Rpm::new(10_000.0));
        sys.set_sink(diskobs::Sink::buffer());
        sys.set_rpm(Rpm::new(12_000.0));
        sys.set_rpm(Rpm::new(12_000.0));
        let mut events = Vec::new();
        sys.drain_events_into(&mut events);
        assert_eq!(events.len(), 1, "one transition per actual change");
        let restored = StorageSystem::restore_state(cfg.clone(), sys.capture_state()).unwrap();
        assert_eq!(restored.rpm(), Rpm::new(12_000.0));
        for rpm in [-1.0, 0.0, f64::NAN, f64::INFINITY] {
            sys.set_rpm(Rpm::new(rpm));
            let err = StorageSystem::restore_state(cfg.clone(), sys.capture_state()).unwrap_err();
            assert!(matches!(err, SimError::BadConfig(_)), "{rpm} RPM: {err}");
        }
    }

    #[test]
    fn a_restored_failed_member_must_be_in_the_array() {
        let raid5 = SystemConfig::raid5(spec(), 4, 16).unwrap();
        let mut sys = StorageSystem::new(raid5.clone()).unwrap();
        sys.fail_disk(3).unwrap();
        let state = sys.capture_state();
        let restored = StorageSystem::restore_state(raid5.clone(), state.clone()).unwrap();
        assert_eq!(restored.failed_disk(), Some(3));
        // The same state under a narrower array, a RAID-0 one, and one
        // with no array at all: member 3 is not a RAID-5 member there.
        let raid0 = SystemConfig::raid0(spec(), 4, 16).unwrap();
        let narrow = SystemConfig::raid5(spec(), 3, 16).unwrap();
        let jbod = SystemConfig::jbod(spec(), 4);
        for config in [raid0, jbod] {
            let err = StorageSystem::restore_state(config, state.clone()).unwrap_err();
            let refused = matches!(err, SimError::BadConfig(ref m) if m.contains("failed member"));
            assert!(refused, "{err}");
        }
        assert!(StorageSystem::restore_state(narrow, state).is_err());
    }

    #[test]
    fn a_state_whose_slabs_do_not_hold_together_is_refused() {
        // Twenty reads 0.5 ms apart against ~5 ms services: at 30 ms a
        // few have finished since the last arrived (freed parents and
        // slots), one is in service and the rest queue on the one disk.
        let cfg = SystemConfig::single_disk(spec());
        let mut sys = StorageSystem::new(cfg.clone()).unwrap();
        for i in 0..20 {
            sys.submit(read(i, i as f64 * 0.5, (i * 997_123) % 10_000_000))
                .unwrap();
        }
        let done = sys.advance_to(Seconds::from_millis(30.0)).len();
        let state = sys.capture_state();
        let q = state.disk_queues[0];
        assert!(q.len >= 3 && !state.slot_free.is_empty() && !state.parent_free.is_empty());
        let mut restored = StorageSystem::restore_state(cfg.clone(), state.clone()).unwrap();
        assert_eq!(done + restored.drain().len(), 20);

        // Where the corruptions land: the queue's head and second slot,
        // the head's (live) parent, a freed parent and a time just
        // before the clock.
        struct At {
            head: usize,
            second: usize,
            live: usize,
            freed: u32,
            before: Seconds,
        }
        let at = At {
            head: q.head as usize,
            second: state.slots[q.head as usize].next as usize,
            live: state.slots[q.head as usize].phys.parent_slot as usize,
            freed: state.parent_free[0],
            before: Seconds::new(state.clock.get() - 1e-3),
        };
        type Corrupt = fn(&mut SystemState, &At);
        let cases: [(&str, Corrupt); 14] = [
            ("a slot on no list", |s, _| {
                s.slot_free.pop();
            }),
            ("a queued slot also free", |s, at| {
                s.slot_free.push(at.head as u32)
            }),
            ("a free slot twice", |s, _| s.slot_free.push(s.slot_free[0])),
            ("a prev link that does not mirror", |s, at| {
                s.slots[at.second].prev = NIL
            }),
            ("a tail that is not the last slot", |s, at| {
                s.disk_queues[0].tail = at.head as u32
            }),
            ("a parent freed twice", |s, _| {
                s.parent_free.push(s.parent_free[0])
            }),
            ("a queued gating op whose parent is free", |s, at| {
                s.slots[at.head].phys.parent_slot = at.freed;
            }),
            (
                "a queued gating op whose parent is out of range",
                |s, at| {
                    s.slots[at.head].phys.parent_slot = s.parents.len() as u32;
                },
            ),
            ("a live parent awaiting none", |s, at| {
                s.parents[at.live].remaining = 0
            }),
            ("a live parent awaiting one too many", |s, at| {
                s.parents[at.live].remaining += 1
            }),
            ("an in-service finish before the clock", |s, at| {
                s.in_service[0].as_mut().unwrap().0 = at.before;
            }),
            ("an in-service finish that is not finite", |s, _| {
                s.in_service[0].as_mut().unwrap().0 = Seconds::new(f64::INFINITY);
            }),
            ("a live parent arriving after the clock", |s, at| {
                s.parents[at.live].request.arrival = Seconds::new(1e300);
            }),
            ("a queued op away from its location", |s, at| {
                s.slots[at.head].phys.lba = 0
            }),
        ];
        for (what, corrupt) in cases {
            let mut bad = state.clone();
            corrupt(&mut bad, &at);
            match StorageSystem::restore_state(cfg.clone(), bad) {
                Err(SimError::BadConfig(_)) => {}
                other => panic!("{what}: {other:?}"),
            }
        }
    }

    #[test]
    fn degraded_array_still_serves_everything_but_slower() {
        let run = |fail: bool| {
            let mut sys =
                StorageSystem::new(SystemConfig::raid5(spec(), 4, 16).unwrap()).unwrap();
            if fail {
                sys.fail_disk(1).unwrap();
            }
            for i in 0..400u64 {
                sys.submit(Request::new(
                    i,
                    Seconds::from_millis(i as f64 * 4.0),
                    0,
                    (i * 1_234_577) % (sys.logical_sectors() - 64),
                    16,
                    if i % 3 == 0 { RequestKind::Write } else { RequestKind::Read },
                ))
                .unwrap();
            }
            let done = sys.drain();
            assert_eq!(done.len(), 400);
            done.iter().map(|c| c.response_time().get()).sum::<f64>() / done.len() as f64
        };
        let healthy = run(false);
        let degraded = run(true);
        assert!(
            degraded > healthy,
            "reconstruction work must slow the array: {healthy:.5} vs {degraded:.5}"
        );
    }

    #[test]
    fn fail_disk_guards() {
        let mut jbod = StorageSystem::new(SystemConfig::jbod(spec(), 4)).unwrap();
        assert!(jbod.fail_disk(0).is_err(), "JBOD has no redundancy");
        let mut raid = StorageSystem::new(SystemConfig::raid5(spec(), 4, 16).unwrap()).unwrap();
        assert!(raid.fail_disk(7).is_err());
        assert!(raid.fail_disk(3).is_ok());
        assert_eq!(raid.failed_disk(), Some(3));
        assert_eq!(
            raid.fail_disk(1),
            Err(SimError::AlreadyDegraded { device: 3 }),
            "a second failure on a degraded RAID-5 must be a typed error"
        );
        raid.repair_disk();
        assert_eq!(raid.failed_disk(), None);
        assert!(raid.fail_disk(1).is_ok(), "a repaired array can fail again");
    }

    #[test]
    fn higher_rpm_improves_mean_response() {
        // The Figure 4 effect in miniature.
        let run = |rpm: f64| -> f64 {
            let mut sys = StorageSystem::new(SystemConfig::single_disk(
                DiskSpec::era_2001(Rpm::new(rpm)),
            ))
            .unwrap();
            for i in 0..300u64 {
                sys.submit(Request::new(
                    i,
                    Seconds::from_millis(i as f64 * 2.0),
                    0,
                    (i * 6_151_111) % 20_000_000,
                    32,
                    if i % 3 == 0 { RequestKind::Write } else { RequestKind::Read },
                ))
                .unwrap();
            }
            let done = sys.drain();
            done.iter().map(|c| c.response_time().to_millis()).sum::<f64>()
                / done.len() as f64
        };
        let slow = run(10_000.0);
        let fast = run(20_000.0);
        assert!(
            fast < slow,
            "20K RPM should beat 10K RPM: {fast:.2} vs {slow:.2} ms"
        );
    }
}
