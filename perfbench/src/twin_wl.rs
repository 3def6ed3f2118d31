//! `twin_whatif`: an 8-enclosure RAID-5 OLTP twin driven as a closed
//! loop by one in-process client. Each operation is the server's
//! epoch-thread work (one `advance_epoch` and one snapshot) followed by
//! one client request from a seeded mix: what-if queries, checkpoint
//! writes and restores.

use crate::fleet_wl::splitmix;
use crate::trace::Tracer;
use crate::Rep;
use diskfleet::EnclosureArray;
use disktwin::{decode, encode, whatif, Twin, TwinConfig, TwinState, WhatIf};
use std::time::Instant;

/// Five perturbation verbs, used in rotation by the what-if requests.
const VERBS: [WhatIf; 5] = [
    WhatIf {
        add_drives: Some(2),
        inlet_delta_c: None,
        traffic_scale: None,
        fail_enclosure: None,
        fail_disk: None,
        cooling_delta_c: None,
        cooling_epochs: None,
    },
    WhatIf {
        add_drives: None,
        inlet_delta_c: Some(3.0),
        traffic_scale: None,
        fail_enclosure: None,
        fail_disk: None,
        cooling_delta_c: None,
        cooling_epochs: None,
    },
    WhatIf {
        add_drives: None,
        inlet_delta_c: None,
        traffic_scale: Some(1.5),
        fail_enclosure: None,
        fail_disk: None,
        cooling_delta_c: None,
        cooling_epochs: None,
    },
    WhatIf {
        add_drives: None,
        inlet_delta_c: None,
        traffic_scale: None,
        fail_enclosure: Some(3),
        fail_disk: Some(1),
        cooling_delta_c: None,
        cooling_epochs: None,
    },
    WhatIf {
        add_drives: None,
        inlet_delta_c: None,
        traffic_scale: None,
        fail_enclosure: None,
        fail_disk: None,
        cooling_delta_c: Some(2.0),
        cooling_epochs: Some(4),
    },
];

#[derive(Debug, Clone, Copy)]
pub struct TwinSize {
    pub enclosures: usize,
    /// Epochs advanced during set-up, before the first operation.
    pub warmup_epochs: u64,
    /// Client requests in the timed phase, a multiple of 8.
    pub ops: usize,
    /// What-if horizon in epochs.
    pub horizon: u64,
    /// What-ifs the traced run rebuilds from their public calls.
    pub rebuilt: usize,
}

impl TwinSize {
    pub fn full() -> Self {
        Self {
            enclosures: 8,
            warmup_epochs: 16,
            ops: 56,
            horizon: 8,
            rebuilt: 20,
        }
    }

    pub fn tiny() -> Self {
        Self {
            enclosures: 4,
            warmup_epochs: 2,
            ops: 24,
            horizon: 2,
            rebuilt: 2,
        }
    }
}

pub struct TwinWorkload {
    pub seed: u64,
    pub size: TwinSize,
}

/// A warmed twin plus the last checkpoint the client wrote.
pub struct TwinInstance {
    pub twin: Twin,
    pub checkpoint: Vec<u8>,
    checkpoint_state: TwinState,
}

/// What the client asks for in one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Request {
    WhatIf(usize),
    Checkpoint,
    Restore,
}

/// The seeded request mix: exactly 3/4 what-ifs (verbs in rotation),
/// 1/8 checkpoints and 1/8 restores in a seeded order, so every seed
/// asks for the same work.
fn mix(seed: u64, ops: usize) -> Vec<Request> {
    let mut rng = seed ^ 0x7A11_0000_0000_0001;
    let mut kinds: Vec<u8> = (0..ops).map(|i| (i % 8) as u8).collect();
    for i in (1..kinds.len()).rev() {
        let j = (splitmix(&mut rng) % (i as u64 + 1)) as usize;
        kinds.swap(i, j);
    }
    let mut whatifs = 0;
    kinds
        .into_iter()
        .map(|kind| match kind {
            0 => Request::Checkpoint,
            1 => Request::Restore,
            _ => {
                whatifs += 1;
                Request::WhatIf((whatifs - 1) % VERBS.len())
            }
        })
        .collect()
}

/// Restores the twin a checkpoint describes. Checks that the bytes
/// decode to exactly the state that was encoded and that the restored
/// twin sits at the snapshot's epoch; a corrupted checkpoint is an
/// error, never a panic.
pub fn restore(bytes: &[u8], expected: &TwinState, tr: &mut Tracer) -> Result<Twin, String> {
    let s = tr.enter("twin.decode");
    let state = decode(bytes).map_err(|e| format!("decode: {e}"))?;
    tr.exit(s);
    if &state != expected {
        return Err("decode(encode(s)) != s".into());
    }
    let epoch = state.epoch();
    let s = tr.enter("twin.restore_state");
    let twin = Twin::restore_state(state).map_err(|e| format!("restore: {e}"))?;
    tr.exit(s);
    if twin.epoch() != epoch {
        return Err(format!(
            "restored twin at epoch {}, snapshot at {epoch}",
            twin.epoch()
        ));
    }
    Ok(twin)
}

impl TwinWorkload {
    fn config(&self) -> TwinConfig {
        let mut config = TwinConfig::preset(workloads::oltp(), self.size.enclosures);
        config.array = Some(EnclosureArray {
            disks: 4,
            stripe_sectors: 65_536,
        });
        config.seed = self.seed;
        config
    }

    /// Builds and warms the twin and writes its first checkpoint, so a
    /// restore request always has one to read.
    pub fn setup(&self, tr: &mut Tracer) -> Result<TwinInstance, String> {
        let s = tr.enter("twin.new");
        let mut twin = Twin::new(self.config()).map_err(|e| e.to_string())?;
        tr.exit(s);
        let s = tr.enter("twin.warmup");
        for _ in 0..self.size.warmup_epochs {
            twin.advance_epoch().map_err(|e| e.to_string())?;
        }
        tr.exit(s);
        let state = twin.capture_state();
        let checkpoint = encode(&state).map_err(|e| e.to_string())?;
        Ok(TwinInstance {
            twin,
            checkpoint,
            checkpoint_state: state,
        })
    }

    /// The timed phase. Returns the what-if latencies and the
    /// operations that failed, with a reason each.
    pub fn timed(
        &self,
        inst: &mut TwinInstance,
        tr: &mut Tracer,
    ) -> Result<(Vec<f64>, Vec<String>), String> {
        let mut whatif_ms = Vec::new();
        let mut failures = Vec::new();
        let timed = tr.enter("bench.timed");
        for (i, request) in mix(self.seed, self.size.ops).into_iter().enumerate() {
            let op = tr.enter("bench.op");
            let s = tr.enter("twin.advance_epoch");
            inst.twin.advance_epoch().map_err(|e| e.to_string())?;
            tr.exit(s);
            let s = tr.enter("twin.capture_state");
            let snapshot = inst.twin.capture_state();
            tr.exit(s);
            match request {
                Request::WhatIf(verb) => {
                    let s = tr.enter("twin.whatif");
                    let t = Instant::now();
                    let answer = whatif(&snapshot, &VERBS[verb], self.size.horizon, None);
                    whatif_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    tr.exit(s);
                    match answer {
                        Ok(r)
                            if r.from_epoch == snapshot.epoch()
                                && r.horizon_epochs == self.size.horizon => {}
                        Ok(r) => failures.push(format!(
                            "op {i}: what-if answered from epoch {}",
                            r.from_epoch
                        )),
                        Err(e) => failures.push(format!("op {i}: what-if: {e}")),
                    }
                }
                Request::Checkpoint => {
                    let s = tr.enter("twin.encode");
                    let bytes = encode(&snapshot);
                    tr.exit(s);
                    match bytes {
                        Ok(bytes) => {
                            tr.count("twin.state_bytes", bytes.len() as u64);
                            tr.count("twin.checkpoints", 1);
                            inst.checkpoint = bytes;
                            inst.checkpoint_state = snapshot;
                        }
                        Err(e) => failures.push(format!("op {i}: encode: {e}")),
                    }
                }
                Request::Restore => {
                    if let Err(e) = restore(&inst.checkpoint, &inst.checkpoint_state, tr) {
                        failures.push(format!("op {i}: {e}"));
                    }
                }
            }
            tr.exit(op);
        }
        tr.exit(timed);
        Ok((whatif_ms, failures))
    }

    /// One untraced repetition: set up, run the timed phase.
    pub fn rep(&self) -> Result<(Rep, TwinInstance), String> {
        let mut off = Tracer::new(false);
        let t = Instant::now();
        let mut inst = self.setup(&mut off)?;
        let setup_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let (whatif_ms, failures) = self.timed(&mut inst, &mut off)?;
        let wall_s = t.elapsed().as_secs_f64();
        let stats = inst.twin.fleet().stats();
        let digest = format!(
            "epoch={} completed={} p95_ms={:.6} peak_air_c={:.6} checkpoint_bytes={}",
            inst.twin.epoch(),
            stats.count(),
            stats.percentile(95.0).to_millis(),
            inst.twin.fleet().peak_air().get(),
            inst.checkpoint.len(),
        );
        let rep = Rep {
            setup_s,
            wall_s,
            attempted: self.size.ops as u64,
            failed: failures.len() as u64,
            failures,
            digest,
            whatif_ms,
            samples: Vec::new(),
        };
        Ok((rep, inst))
    }

    /// Rebuilds `rebuilt` what-ifs from their public calls on the
    /// twin's current snapshot: two restores and the verb (the fork),
    /// then both forks advanced over the horizon with a report before
    /// and after (the simulation).
    pub fn rebuild_whatifs(&self, inst: &TwinInstance, tr: &mut Tracer) -> Result<(), String> {
        let snapshot = inst.twin.capture_state();
        for k in 0..self.size.rebuilt {
            let fork = tr.enter("twin.whatif_fork");
            let base = Twin::restore_state(snapshot.clone()).map_err(|e| e.to_string())?;
            let mut pert = Twin::restore_state(snapshot.clone()).map_err(|e| e.to_string())?;
            let verb = VERBS[k % VERBS.len()];
            if let Some(n) = verb.add_drives {
                pert.add_drives(n).map_err(|e| e.to_string())?;
            }
            if let Some(d) = verb.inlet_delta_c {
                pert.shift_inlet(d).map_err(|e| e.to_string())?;
            }
            if let Some(f) = verb.traffic_scale {
                pert.scale_traffic(f).map_err(|e| e.to_string())?;
            }
            if let Some(e) = verb.fail_enclosure {
                pert.fail_drive(
                    e,
                    verb.fail_disk.unwrap_or(0),
                    diskfleet::RebuildSpec::default(),
                )
                .map_err(|e| e.to_string())?;
            }
            if let Some(d) = verb.cooling_delta_c {
                pert.cooling_event(d, verb.cooling_epochs.unwrap_or(0))
                    .map_err(|e| e.to_string())?;
            }
            tr.exit(fork);
            let sim = tr.enter("twin.whatif_sim");
            for mut twin in [base, pert] {
                let r = tr.enter("fleet.report");
                std::hint::black_box(twin.fleet().report());
                tr.exit(r);
                for _ in 0..self.size.horizon {
                    twin.advance_epoch().map_err(|e| e.to_string())?;
                }
                let r = tr.enter("fleet.report");
                std::hint::black_box(twin.fleet().report());
                tr.exit(r);
            }
            tr.exit(sim);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_mix_is_seeded_with_fixed_proportions() {
        let a = mix(7, 800);
        assert_eq!(a, mix(7, 800));
        assert_ne!(a, mix(8, 800));
        let of = |r: Request| a.iter().filter(|&&x| x == r).count();
        assert_eq!(of(Request::Checkpoint), 100);
        assert_eq!(of(Request::Restore), 100);
        for verb in 0..VERBS.len() {
            assert_eq!(of(Request::WhatIf(verb)), 120);
        }
    }

    #[test]
    fn a_flipped_checkpoint_byte_is_a_failed_operation_not_a_panic() {
        // A seed whose mix restores before it writes any checkpoint, so
        // the first restore reads the corrupted set-up checkpoint.
        let size = TwinSize::tiny();
        let seed = (0..1_000)
            .find(|&s| {
                let m = mix(s, size.ops);
                let restore = m.iter().position(|r| *r == Request::Restore);
                let checkpoint = m.iter().position(|r| *r == Request::Checkpoint);
                match (restore, checkpoint) {
                    (Some(r), Some(c)) => r < c,
                    (Some(_), None) => true,
                    _ => false,
                }
            })
            .expect("some seed restores first");
        let w = TwinWorkload { seed, size };
        let mut off = Tracer::new(false);
        let mut inst = w.setup(&mut off).expect("set-up succeeds");
        let mid = inst.checkpoint.len() / 2;
        inst.checkpoint[mid] ^= 0x20;
        let (_, failures) = w
            .timed(&mut inst, &mut off)
            .expect("a bad checkpoint is not a run error");
        assert!(
            failures.iter().any(|f| f.contains("decode")),
            "{failures:?}"
        );
    }
}
