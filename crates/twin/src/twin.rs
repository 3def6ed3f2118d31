//! The twin itself: a warm fleet plus its arrival stream, advanced one
//! sync epoch at a time, checkpointable between epochs, and forkable
//! for speculative what-if queries.

use crate::checkpoint::STATE_VERSION;
use crate::error::TwinError;
use diskfleet::{
    AirflowGraph, Fleet, FleetConfig, FleetDtmPolicy, FleetState, RebuildSpec, RoutingPolicy,
};
use diskscenario::{
    ArrivalSource, ArrivalSourceState, CoolingScope, Injection, Scenario, ScenarioEngine,
};
use disksim::{DiskSpec, Request};
use diskthermal::DriveThermalSpec;
use serde::{Deserialize, Serialize};
use std::time::Instant;
use units::{Celsius, TempDelta};
use workloads::WorkloadPreset;

/// How a twin is assembled.
#[derive(Debug, Clone)]
pub struct TwinConfig {
    /// Fleet size (serial airflow).
    pub enclosures: usize,
    /// Per-enclosure disk specification.
    pub spec: DiskSpec,
    /// Per-drive thermal geometry.
    pub thermal: DriveThermalSpec,
    /// Cooling-stream capacity rate for the serial airflow graph, W/K.
    pub stream_w_per_k: f64,
    /// Request-placement policy.
    pub routing: RoutingPolicy,
    /// Fleet-level DTM actuation.
    pub dtm: FleetDtmPolicy,
    /// Shards for the fleet's parallel epoch loop.
    pub threads: usize,
    /// Per-enclosure RAID-5 arrays (`None` = one disk per bay). Arrays
    /// are what make the `fail_drive` what-if meaningful: a failed
    /// member degrades its bay and a rebuild storm follows.
    pub array: Option<diskfleet::EnclosureArray>,
    /// The workload whose arrival stream feeds the twin.
    pub workload: WorkloadPreset,
    /// Arrival-stream seed.
    pub seed: u64,
}

impl TwinConfig {
    /// A default twin: the workload's era disks in a serial-airflow
    /// rack, thermal-aware routing, no DTM.
    pub fn preset(workload: WorkloadPreset, enclosures: usize) -> Self {
        let spec = DiskSpec::era(workload.year, workload.platters_per_disk, workload.base_rpm);
        Self {
            enclosures,
            spec,
            thermal: DriveThermalSpec::new(units::Inches::new(3.3), 1),
            stream_w_per_k: 10.0,
            routing: RoutingPolicy::ThermalAware {
                envelope: diskthermal::THERMAL_ENVELOPE,
            },
            dtm: FleetDtmPolicy::None,
            threads: 1,
            array: None,
            workload,
            seed: 42,
        }
    }
}

/// Complete dynamic state of a [`Twin`]: everything needed to continue
/// the simulation byte-identically — the fleet (drives, queues, RNG-free
/// event state, thermal state, coordinator hysteresis, rebuilds and
/// ambient biases), the arrival source (synthetic stream or trace
/// replay), the pending scenario schedule with its fired flags, and the
/// one request drawn ahead of the current epoch boundary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TwinState {
    /// Format version ([`STATE_VERSION`]); checked on restore.
    pub version: u32,
    stream_w_per_k: f64,
    fleet: FleetState,
    source: ArrivalSourceState,
    scenario: Option<ScenarioEngine>,
    lookahead: Option<Request>,
}

impl TwinState {
    /// The sync epoch this state was captured at — the snapshot's
    /// identity in the server's history ring.
    pub fn epoch(&self) -> u64 {
        self.fleet.epochs()
    }

    /// Simulated time at capture, seconds.
    pub fn time_s(&self) -> f64 {
        self.fleet.now().get()
    }

    /// Number of enclosures the captured fleet carries.
    pub fn enclosures(&self) -> usize {
        self.fleet.enclosures()
    }
}

/// The live digital twin: a fleet kept warm by an endless workload
/// stream, advanced one sync epoch per [`Twin::advance_epoch`] call.
pub struct Twin {
    fleet: Fleet,
    source: ArrivalSource,
    /// Pending injection schedule, applied at each epoch boundary.
    scenario: Option<ScenarioEngine>,
    /// The first request drawn past the current epoch's end; offered at
    /// the start of the next epoch so the stream is consumed exactly
    /// once regardless of where checkpoints land.
    lookahead: Option<Request>,
    stream_w_per_k: f64,
    profile: diskfleet::FleetPhaseProfile,
}

impl Twin {
    /// Assembles a fresh twin from a configuration, fed by the
    /// configured workload's synthetic stream.
    ///
    /// # Errors
    ///
    /// Propagates fleet and workload construction failures.
    pub fn new(config: TwinConfig) -> Result<Self, TwinError> {
        let source = ArrivalSource::Synthetic(config.workload.stream(config.seed)?);
        Self::with_source(config, source)
    }

    /// Assembles a twin fed by an explicit arrival source — the replay
    /// entry point: the same recorded trace that drives a batch fleet
    /// run drives the twin identically. The config's `workload` and
    /// `seed` only shape the fleet, not the arrivals.
    ///
    /// # Errors
    ///
    /// Propagates fleet construction failures.
    pub fn with_source(config: TwinConfig, source: ArrivalSource) -> Result<Self, TwinError> {
        if !(config.stream_w_per_k.is_finite() && config.stream_w_per_k > 0.0) {
            return Err(TwinError::Config(format!(
                "stream capacity rate must be positive and finite, got {}",
                config.stream_w_per_k
            )));
        }
        let mut fleet_cfg = FleetConfig::serial(
            config.enclosures,
            config.spec,
            config.thermal,
            config.stream_w_per_k,
        )?;
        fleet_cfg.routing = config.routing;
        fleet_cfg.dtm = config.dtm;
        fleet_cfg.threads = config.threads;
        fleet_cfg.array = config.array;
        let fleet = Fleet::new(fleet_cfg)?;
        Ok(Self {
            fleet,
            source,
            scenario: None,
            lookahead: None,
            stream_w_per_k: config.stream_w_per_k,
            profile: diskfleet::FleetPhaseProfile::default(),
        })
    }

    /// Installs (or replaces) an injection schedule. Epochs already due
    /// fire at the next [`Self::advance_epoch`]; the schedule's state
    /// — fired flags and the traffic factor in force — rides along in
    /// every checkpoint.
    pub fn set_scenario(&mut self, scenario: Scenario) {
        self.scenario = Some(ScenarioEngine::new(scenario));
    }

    /// The pending schedule's engine, if one is installed.
    pub fn scenario(&self) -> Option<&ScenarioEngine> {
        self.scenario.as_ref()
    }

    /// Advances the twin exactly one sync epoch through
    /// [`diskscenario::advance_epoch`]: applies any scenario injections
    /// due at this boundary, draws every arrival up to the next epoch
    /// boundary from the arrival source, offers them to the fleet, and
    /// steps the fleet's epoch loop (routing, the parallel window
    /// sweep, airflow coupling, coordination).
    ///
    /// # Errors
    ///
    /// Propagates a scenario injection naming a nonexistent enclosure
    /// or disk, or double-failing an array.
    pub fn advance_epoch(&mut self) -> Result<(), TwinError> {
        self.advance_epoch_with_sink(&mut diskobs::Sink::null())
    }

    /// [`Self::advance_epoch`] with an observability sink: the fleet's
    /// event stream (snapshots, boundary events, request lifecycles)
    /// lands in `sink`, byte-identical to a batch fleet run driven from
    /// the same source.
    ///
    /// # Errors
    ///
    /// As [`Self::advance_epoch`].
    pub fn advance_epoch_with_sink(&mut self, sink: &mut diskobs::Sink) -> Result<(), TwinError> {
        if sink.is_enabled() {
            self.fleet.enable_drive_sinks();
        } else {
            self.fleet.disable_drive_sinks();
        }
        diskscenario::advance_epoch(
            &mut self.fleet,
            &mut self.source,
            self.scenario.as_mut(),
            &mut self.lookahead,
            sink,
            &mut self.profile,
        )?;
        Ok(())
    }

    /// Sync epochs executed so far.
    pub fn epoch(&self) -> u64 {
        self.fleet.epochs()
    }

    /// Current simulated time.
    pub fn now(&self) -> units::Seconds {
        self.fleet.now()
    }

    /// The warm fleet, read-only.
    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    /// Wall-clock profile of the epochs advanced so far.
    pub fn profile(&self) -> diskfleet::FleetPhaseProfile {
        self.profile
    }

    /// Captures the twin's complete dynamic state (an epoch-boundary
    /// snapshot).
    pub fn capture_state(&self) -> TwinState {
        TwinState {
            version: STATE_VERSION,
            stream_w_per_k: self.stream_w_per_k,
            fleet: self.fleet.capture_state(),
            source: self.source.capture_state(),
            scenario: self.scenario.clone(),
            lookahead: self.lookahead,
        }
    }

    /// Rebuilds a twin mid-flight from a captured state. Advancing the
    /// restored twin is byte-identical to advancing the original.
    ///
    /// # Errors
    ///
    /// Rejects wrong-version and inconsistent states (the checks that
    /// catch a corrupted checkpoint whose envelope still validates).
    pub fn restore_state(state: TwinState) -> Result<Self, TwinError> {
        if state.version != STATE_VERSION {
            return Err(TwinError::Config(format!(
                "state version {} is not the supported version {STATE_VERSION}",
                state.version
            )));
        }
        if !(state.stream_w_per_k.is_finite() && state.stream_w_per_k > 0.0) {
            return Err(TwinError::Config(format!(
                "stream capacity rate must be positive and finite, got {}",
                state.stream_w_per_k
            )));
        }
        let fleet = Fleet::restore_state(state.fleet)?;
        let source = ArrivalSource::restore_state(state.source).map_err(TwinError::Config)?;
        Ok(Self {
            fleet,
            source,
            scenario: state.scenario,
            lookahead: state.lookahead,
            stream_w_per_k: state.stream_w_per_k,
            profile: diskfleet::FleetPhaseProfile::default(),
        })
    }

    /// Forks an independent copy: same state, separate future. The
    /// live twin is untouched.
    ///
    /// # Errors
    ///
    /// As [`Self::restore_state`] (never fails for a state captured
    /// from a live twin).
    pub fn fork(&self) -> Result<Self, TwinError> {
        Self::restore_state(self.capture_state())
    }

    // --- Perturbations (applied to forks) ---

    /// Grows the rack by `extra` drives, built from the fleet's own disk
    /// and thermal specs, on the same serial airflow.
    ///
    /// # Errors
    ///
    /// Rejects `extra == 0` and absurd growth, and propagates simulator
    /// construction failures.
    pub fn add_drives(&mut self, extra: u64) -> Result<(), TwinError> {
        if extra == 0 {
            return Err(TwinError::BadQuery("add_drives must be positive".into()));
        }
        if extra > 4_096 {
            return Err(TwinError::BadQuery(format!(
                "add_drives {extra} exceeds the 4096-drive cap"
            )));
        }
        let n = self.fleet.len() + extra as usize;
        let graph = AirflowGraph::serial(n, self.fleet.inlet(), self.stream_w_per_k)?;
        self.fleet.add_enclosures(graph)?;
        Ok(())
    }

    /// Shifts the rack inlet temperature by `delta_c` degrees (the CRAC
    /// setpoint what-if).
    ///
    /// # Errors
    ///
    /// Rejects a non-finite delta.
    pub fn shift_inlet(&mut self, delta_c: f64) -> Result<(), TwinError> {
        if !delta_c.is_finite() {
            return Err(TwinError::BadQuery(format!(
                "inlet_delta_c must be finite, got {delta_c}"
            )));
        }
        let inlet: Celsius = self.fleet.inlet() + TempDelta::new(delta_c);
        self.fleet.set_inlet(inlet);
        Ok(())
    }

    /// Rescales the workload's long-run arrival rate by `factor`,
    /// keeping the stream's clock and burst phase.
    ///
    /// # Errors
    ///
    /// Rejects a non-positive or non-finite factor.
    pub fn scale_traffic(&mut self, factor: f64) -> Result<(), TwinError> {
        if !(factor.is_finite() && factor > 0.0) {
            return Err(TwinError::BadQuery(format!(
                "traffic_scale must be positive and finite, got {factor}"
            )));
        }
        self.source.scale_traffic(factor);
        Ok(())
    }

    /// Fails one RAID-5 member now and starts its rebuild storm (the
    /// degraded-array what-if). The fleet must have been assembled with
    /// per-enclosure arrays.
    ///
    /// # Errors
    ///
    /// Rejects a nonexistent enclosure or disk, a double failure, and
    /// single-disk (non-array) fleets — all typed through the fleet.
    pub fn fail_drive(
        &mut self,
        enclosure: usize,
        disk: u32,
        rebuild: RebuildSpec,
    ) -> Result<(), TwinError> {
        self.fleet.fail_drive(enclosure, disk, rebuild)?;
        Ok(())
    }

    /// Starts a fleet-wide inlet-temperature excursion of `delta_c`
    /// degrees at the next epoch boundary, recovering after
    /// `duration_epochs` (0 = never). Scheduled through the scenario
    /// engine — appended to any installed schedule without disturbing
    /// its fired flags — so it survives checkpoints.
    ///
    /// # Errors
    ///
    /// Rejects a non-finite delta.
    pub fn cooling_event(&mut self, delta_c: f64, duration_epochs: u64) -> Result<(), TwinError> {
        if !delta_c.is_finite() {
            return Err(TwinError::BadQuery(format!(
                "cooling_delta_c must be finite, got {delta_c}"
            )));
        }
        let injection = Injection::CoolingEvent {
            at_epoch: self.fleet.epochs(),
            duration_epochs,
            ramp_epochs: 0,
            delta_c,
            scope: CoolingScope::All,
        };
        self.scenario
            .get_or_insert_with(|| ScenarioEngine::new(Scenario::new()))
            .push(injection);
        Ok(())
    }
}

/// One speculative perturbation, applied to a fork of the live twin.
/// Any combination of the three knobs may be set; none at all is a
/// valid (pure-baseline) query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct WhatIf {
    /// Extra drives appended to the serial rack.
    pub add_drives: Option<u64>,
    /// Rack-inlet shift in degrees Celsius.
    pub inlet_delta_c: Option<f64>,
    /// Arrival-rate multiplier.
    pub traffic_scale: Option<f64>,
    /// Fail one RAID-5 member: the enclosure holding it (requires an
    /// array fleet; pairs with [`Self::fail_disk`]).
    pub fail_enclosure: Option<usize>,
    /// Member index of the failed disk (defaults to 0 when only
    /// `fail_enclosure` is set).
    pub fail_disk: Option<u32>,
    /// Fleet-wide inlet excursion in degrees Celsius, scheduled at the
    /// fork epoch through the scenario engine.
    pub cooling_delta_c: Option<f64>,
    /// Excursion length in epochs (0 or omitted = the whole horizon).
    pub cooling_epochs: Option<u64>,
}

/// What one fork saw over the query horizon.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ForkOutcome {
    /// Requests completed inside the horizon.
    pub completed: u64,
    /// Mean response time, ms.
    pub mean_ms: f64,
    /// 95th-percentile response time, ms.
    pub p95_ms: f64,
    /// 99th-percentile response time, ms.
    pub p99_ms: f64,
    /// Largest response time, ms.
    pub max_ms: f64,
    /// Response-time CDF at the paper's Figure 4 bucket edges:
    /// `(edge_ms, fraction_at_or_below)`, finite edges only.
    pub cdf: Vec<(f64, f64)>,
    /// Hottest internal air any drive reached during the horizon, °C.
    pub peak_air_c: f64,
    /// Hottest preheated local ambient during the horizon, °C.
    pub peak_local_ambient_c: f64,
    /// Most drives simultaneously under DTM control action.
    pub max_engaged: u64,
    /// Drive-seconds of admission gating accumulated over the horizon.
    pub gated_s: f64,
    /// Drive-seconds spent downshifted over the horizon.
    pub scaled_s: f64,
}

/// Answer to a what-if query: the baseline fork and the perturbed fork
/// advanced over the same horizon from the same snapshot, plus the
/// headline deltas.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WhatIfReport {
    /// The snapshot epoch both forks started from.
    pub from_epoch: u64,
    /// Simulated time at the fork point, seconds.
    pub from_time_s: f64,
    /// Sync epochs each fork advanced.
    pub horizon_epochs: u64,
    /// The perturbation that was applied.
    pub query: WhatIf,
    /// The unperturbed fork.
    pub baseline: ForkOutcome,
    /// The perturbed fork.
    pub perturbed: ForkOutcome,
    /// `perturbed.peak_air_c − baseline.peak_air_c`.
    pub peak_air_delta_c: f64,
    /// `perturbed.mean_ms − baseline.mean_ms`.
    pub mean_response_delta_ms: f64,
    /// `perturbed.p99_ms − baseline.p99_ms`.
    pub p99_response_delta_ms: f64,
    /// `perturbed.max_engaged − baseline.max_engaged`.
    pub engaged_delta: i64,
    /// `perturbed.gated_s − baseline.gated_s`.
    pub gated_delta_s: f64,
}

/// Advances one fork over the horizon, tracking peaks epoch by epoch.
fn run_fork(
    twin: &mut Twin,
    horizon: u64,
    deadline: Option<Instant>,
) -> Result<ForkOutcome, TwinError> {
    twin.fleet.reset_stats();
    let before = twin.fleet.report();
    let mut peak_air = twin.fleet.peak_air();
    let mut peak_ambient = twin.fleet.peak_local_ambient();
    let mut max_engaged = twin.fleet.engaged_count();
    for _ in 0..horizon {
        if let Some(d) = deadline {
            if Instant::now() >= d {
                return Err(TwinError::Timeout);
            }
        }
        twin.advance_epoch()?;
        peak_air = peak_air.max(twin.fleet.peak_air());
        peak_ambient = peak_ambient.max(twin.fleet.peak_local_ambient());
        max_engaged = max_engaged.max(twin.fleet.engaged_count());
    }
    let after = twin.fleet.report();
    let sum_gated = |r: &diskfleet::FleetReport| {
        r.per_enclosure.iter().map(|e| e.time_gated.get()).sum::<f64>()
    };
    let sum_scaled = |r: &diskfleet::FleetReport| {
        r.per_enclosure.iter().map(|e| e.time_scaled.get()).sum::<f64>()
    };
    let stats = &after.stats;
    Ok(ForkOutcome {
        completed: stats.count(),
        mean_ms: stats.mean().to_millis(),
        p95_ms: stats.percentile(95.0).to_millis(),
        p99_ms: stats.percentile(99.0).to_millis(),
        max_ms: stats.max().to_millis(),
        cdf: stats.cdf().into_iter().filter(|(edge, _)| edge.is_finite()).collect(),
        peak_air_c: peak_air.get(),
        peak_local_ambient_c: peak_ambient.get(),
        max_engaged: max_engaged as u64,
        gated_s: sum_gated(&after) - sum_gated(&before),
        scaled_s: sum_scaled(&after) - sum_scaled(&before),
    })
}

/// Answers a what-if query against a snapshot: forks it twice, applies
/// the perturbation to one fork, advances both `horizon_epochs`, and
/// reports both outcomes plus the deltas. The snapshot is never
/// mutated, so any number of queries can run concurrently against the
/// same (or different) snapshots while the live twin keeps advancing.
///
/// # Errors
///
/// Rejects malformed perturbations, propagates restore failures, and
/// returns [`TwinError::Timeout`] when `deadline` passes mid-horizon.
pub fn whatif(
    state: &TwinState,
    query: &WhatIf,
    horizon_epochs: u64,
    deadline: Option<Instant>,
) -> Result<WhatIfReport, TwinError> {
    if horizon_epochs == 0 {
        return Err(TwinError::BadQuery("horizon_epochs must be positive".into()));
    }
    if horizon_epochs > 100_000 {
        return Err(TwinError::BadQuery(format!(
            "horizon_epochs {horizon_epochs} exceeds the 100000-epoch cap"
        )));
    }
    let mut baseline = Twin::restore_state(state.clone())?;
    let mut perturbed = Twin::restore_state(state.clone())?;
    if let Some(extra) = query.add_drives {
        perturbed.add_drives(extra)?;
    }
    if let Some(delta) = query.inlet_delta_c {
        perturbed.shift_inlet(delta)?;
    }
    if let Some(factor) = query.traffic_scale {
        perturbed.scale_traffic(factor)?;
    }
    if query.fail_enclosure.is_some() || query.fail_disk.is_some() {
        let enclosure = query.fail_enclosure.ok_or_else(|| {
            TwinError::BadQuery("fail_disk needs fail_enclosure".into())
        })?;
        perturbed.fail_drive(enclosure, query.fail_disk.unwrap_or(0), RebuildSpec::default())?;
    }
    if let Some(delta) = query.cooling_delta_c {
        perturbed.cooling_event(delta, query.cooling_epochs.unwrap_or(0))?;
    }
    let from_epoch = baseline.epoch();
    let from_time_s = baseline.now().get();
    let base = run_fork(&mut baseline, horizon_epochs, deadline)?;
    let pert = run_fork(&mut perturbed, horizon_epochs, deadline)?;
    Ok(WhatIfReport {
        from_epoch,
        from_time_s,
        horizon_epochs,
        query: *query,
        peak_air_delta_c: pert.peak_air_c - base.peak_air_c,
        mean_response_delta_ms: pert.mean_ms - base.mean_ms,
        p99_response_delta_ms: pert.p99_ms - base.p99_ms,
        engaged_delta: pert.max_engaged as i64 - base.max_engaged as i64,
        gated_delta_s: pert.gated_s - base.gated_s,
        baseline: base,
        perturbed: pert,
    })
}
