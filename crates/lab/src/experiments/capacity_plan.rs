//! Two-stage capacity planning: how many drives fit a rack under the
//! thermal envelope at an acceptable tail latency?
//!
//! The §4.2.2 question asked forward — given a geometry, how hot does
//! it run? — capacity planning asks inverted: given the envelope, how
//! dense can the hall get? Answering by brute force costs one full
//! fleet simulation per candidate configuration. This experiment runs
//! the search in two stages instead:
//!
//! 1. a **training sweep** ([`SweepSpec`]) evaluates the full simulator
//!    on a coarse knob grid, in parallel, and fits a
//!    [`GridSurrogate`] to the sweep's target vector;
//! 2. the surrogate **screens** a dense candidate set (every integer
//!    rack density across every rate/geometry/inlet/DTM combination)
//!    against the envelope and tail-latency constraints at
//!    interpolation cost, and only the feasibility **frontier** — the
//!    densest feasible rack per combination plus the first infeasible
//!    density above it — is re-run through the full simulator, which
//!    has the final word.
//!
//! Between the stages, held-out sweep points (grid-cell midpoints that
//! never entered the fit) are predicted and compared against their
//! simulated truth; the run **fails loudly** if the screening outputs
//! (`peak_air_c`, `p95_ms`) miss by more than [`TOLERANCE`] relative
//! error. All cross-validation errors — including the DTM engagement
//! rate, whose thresholded knee a grid interpolant cannot capture and
//! which no constraint reads — are committed in the results.
//!
//! Results are byte-identical at any `threads`: the sweep runs through
//! the order-preserving work-stealing pool and every point is a pure
//! function of its coordinates.

use crate::experiments::config_object;
use crate::sweep::{SweepSpec, KNOBS, PER_RACK_AXIS, PRESET_SLUGS};
use crate::text::{outln, rule};
use crate::{Experiment, LabError, RunOutput, Scale};
use disksurrogate::{cross_validate, frontier, screen, Constraint, CrossValidation, GridSurrogate};
use diskthermal::THERMAL_ENVELOPE;
use serde::Serialize;
use serde_json::Value;

/// Relative-error tolerance the screening outputs must meet on the
/// held-out points.
pub const TOLERANCE: f64 = 0.10;

/// The p95 response-time bound a feasible configuration must hold.
pub const P95_LIMIT_MS: f64 = 15.0;

/// The outputs screening constraints read — the ones the
/// cross-validation gate applies to.
pub const GATE_OUTPUTS: [&str; 2] = ["peak_air_c", "p95_ms"];

#[derive(Serialize)]
struct VerifiedCandidate {
    coords: Vec<f64>,
    surrogate: Vec<(String, f64)>,
    simulated: Vec<(String, f64)>,
    screen_feasible: bool,
    sim_feasible: bool,
}

#[derive(Serialize)]
struct PlanRow {
    rate: f64,
    racks_per_row: usize,
    inlet_c: f64,
    dtm: u8,
    /// Densest per_rack the screen found feasible (0: none feasible).
    max_per_rack: usize,
    /// Drives in the winning hall (0 when nothing was feasible).
    max_drives: usize,
    /// The full simulator agreed the winning density is feasible.
    confirmed: bool,
    verified_peak_air_c: f64,
    verified_p95_ms: f64,
}

#[derive(Serialize)]
struct PresetOutcome {
    preset: String,
    grid_points: usize,
    holdout_points: usize,
    cross_validation: CrossValidation,
    candidates_screened: usize,
    frontier_verified: usize,
    verification_agreements: usize,
    verified: Vec<VerifiedCandidate>,
    plan: Vec<PlanRow>,
}

#[derive(Serialize)]
struct PlanPayload {
    envelope_c: f64,
    p95_limit_ms: f64,
    tolerance: f64,
    gate_outputs: Vec<String>,
    full_sims: usize,
    candidates_screened: usize,
    presets: Vec<PresetOutcome>,
}

/// The two-stage capacity-planning experiment.
pub struct CapacityPlan {
    /// Requests per simulated trace.
    pub requests: usize,
    /// Rows per hall.
    pub rows: usize,
    /// Trace seed.
    pub seed: u64,
    /// Grid nodes per knob (see [`KNOBS`] for the order).
    pub rates: Vec<f64>,
    /// Rack-density grid nodes; candidates densify to every integer in
    /// this range.
    pub per_rack: Vec<f64>,
    /// Racks-per-row grid nodes.
    pub racks_per_row: Vec<f64>,
    /// Inlet-temperature grid nodes.
    pub inlets_c: Vec<f64>,
    /// Sweep-pool workers. Results are byte-identical at any value, so
    /// this is not part of the config digest.
    pub threads: usize,
}

impl CapacityPlan {
    /// Grid sizes at the given scale. Both scales keep the envelope
    /// boundary inside the swept range (the probe point: a 32 °C inlet
    /// puts the 45.22 °C envelope at a rack density of 12–16 bays).
    pub fn at_scale(scale: Scale) -> Self {
        let (requests, rows, rates, per_rack, racks_per_row, inlets_c) = match scale {
            Scale::Full => (
                2_000,
                2,
                vec![200.0, 400.0, 600.0],
                vec![4.0, 16.0, 32.0],
                vec![2.0, 4.0],
                vec![28.0, 32.0],
            ),
            Scale::Quick => (
                300,
                1,
                vec![200.0, 400.0],
                vec![4.0, 8.0],
                vec![2.0],
                vec![28.0, 32.0],
            ),
        };
        CapacityPlan {
            requests,
            rows,
            seed: 23,
            rates,
            per_rack,
            racks_per_row,
            inlets_c,
            threads: crate::engine::default_parallelism(),
        }
    }

    fn sweep_for(&self, preset: &str) -> SweepSpec {
        SweepSpec {
            preset: preset.to_string(),
            rows: self.rows,
            requests: self.requests,
            seed: self.seed,
            rates: self.rates.clone(),
            per_rack: self.per_rack.clone(),
            racks_per_row: self.racks_per_row.clone(),
            inlets_c: self.inlets_c.clone(),
            dtm: vec![0.0, 1.0],
        }
    }

    /// Every integer rack density across every combination of the other
    /// knob nodes — the dense stage-1 candidate set.
    fn candidates(&self) -> Vec<Vec<f64>> {
        let lo = self.per_rack.first().copied().unwrap_or(1.0) as usize;
        let hi = self.per_rack.last().copied().unwrap_or(1.0) as usize;
        let mut out = Vec::new();
        for &rate in &self.rates {
            for pr in lo..=hi {
                for &racks in &self.racks_per_row {
                    for &inlet in &self.inlets_c {
                        for dtm in [0.0, 1.0] {
                            out.push(vec![rate, pr as f64, racks, inlet, dtm]);
                        }
                    }
                }
            }
        }
        out
    }

    fn plan_preset(&self, preset: &str) -> Result<(PresetOutcome, usize), LabError> {
        let fail = |stage: &str, e: &dyn std::fmt::Display| {
            LabError::Experiment(format!("capacity_plan/{preset} {stage}: {e}"))
        };
        let sweep = self.sweep_for(preset);

        // Stage 1a: training sweep + fit.
        let grid = sweep.grid();
        let train = sweep.run(&grid, self.threads)?;
        let model = GridSurrogate::fit(sweep.axes()?, &train).map_err(|e| fail("fit", &e))?;

        // Stage 1b: held-out cross-validation, gated on the outputs the
        // screen reads. Failure here is a hard error by design: a
        // surrogate that cannot reproduce held-out simulator points has
        // no business screening candidates.
        let holdout = sweep.holdout();
        let truth = sweep.run(&holdout, self.threads)?;
        let cv = cross_validate(&model, &truth).map_err(|e| fail("cross-validation", &e))?;
        cv.gate_outputs(&GATE_OUTPUTS, TOLERANCE)
            .map_err(|e| fail("cross-validation gate", &e))?;

        // Stage 1c: screen the dense candidate set.
        let constraints = vec![
            Constraint {
                output: "peak_air_c".into(),
                max: THERMAL_ENVELOPE.get(),
            },
            Constraint {
                output: "p95_ms".into(),
                max: P95_LIMIT_MS,
            },
        ];
        let candidates = self.candidates();
        let screened =
            screen(&model, &candidates, &constraints).map_err(|e| fail("screen", &e))?;

        // Stage 2: full-sim verification of the feasibility frontier.
        let picks = frontier(&screened, PER_RACK_AXIS);
        let verify_points: Vec<Vec<f64>> =
            picks.iter().map(|&i| screened[i].coords.clone()).collect();
        let verified_truth = sweep.run(&verify_points, self.threads)?;
        let sim_feasible_at = |outputs: &[(String, f64)]| {
            constraints.iter().all(|c| {
                outputs
                    .iter()
                    .find(|(n, _)| *n == c.output)
                    .map(|(_, v)| *v <= c.max)
                    .unwrap_or(false)
            })
        };
        let verified: Vec<VerifiedCandidate> = picks
            .iter()
            .zip(&verified_truth)
            .map(|(&i, truth)| VerifiedCandidate {
                coords: screened[i].coords.clone(),
                surrogate: screened[i].predictions.clone(),
                simulated: truth.outputs.clone(),
                screen_feasible: screened[i].feasible,
                sim_feasible: sim_feasible_at(&truth.outputs),
            })
            .collect();
        let agreements = verified
            .iter()
            .filter(|v| v.screen_feasible == v.sim_feasible)
            .count();

        // The plan: per knob combination, the screen's densest feasible
        // rack, with the simulator's verdict and measured outputs.
        let mut plan = Vec::new();
        for &rate in &self.rates {
            for &racks in &self.racks_per_row {
                for &inlet in &self.inlets_c {
                    for dtm in [0.0, 1.0] {
                        let in_group = |c: &[f64]| {
                            c[0] == rate && c[2] == racks && c[3] == inlet && c[4] == dtm
                        };
                        let best = verified
                            .iter()
                            .filter(|v| in_group(&v.coords) && v.screen_feasible)
                            .max_by(|a, b| {
                                a.coords[PER_RACK_AXIS].total_cmp(&b.coords[PER_RACK_AXIS])
                            });
                        let output = |v: &VerifiedCandidate, name: &str| {
                            v.simulated
                                .iter()
                                .find(|(n, _)| n == name)
                                .map(|(_, x)| *x)
                                .unwrap_or(f64::NAN)
                        };
                        let max_per_rack =
                            best.map(|v| v.coords[PER_RACK_AXIS] as usize).unwrap_or(0);
                        plan.push(PlanRow {
                            rate,
                            racks_per_row: racks as usize,
                            inlet_c: inlet,
                            dtm: dtm as u8,
                            max_per_rack,
                            max_drives: max_per_rack * racks as usize * self.rows,
                            confirmed: best.map(|v| v.sim_feasible).unwrap_or(false),
                            verified_peak_air_c: best
                                .map(|v| output(v, "peak_air_c"))
                                .unwrap_or(f64::NAN),
                            verified_p95_ms: best
                                .map(|v| output(v, "p95_ms"))
                                .unwrap_or(f64::NAN),
                        });
                    }
                }
            }
        }

        let full_sims = train.len() + truth.len() + verified_truth.len();
        Ok((
            PresetOutcome {
                preset: preset.to_string(),
                grid_points: grid.len(),
                holdout_points: holdout.len(),
                cross_validation: cv,
                candidates_screened: candidates.len(),
                frontier_verified: picks.len(),
                verification_agreements: agreements,
                verified,
                plan,
            },
            full_sims,
        ))
    }
}

impl Experiment for CapacityPlan {
    fn name(&self) -> &'static str {
        "capacity_plan"
    }

    fn config(&self) -> Value {
        config_object(vec![
            ("requests", self.requests.to_value()),
            ("rows", self.rows.to_value()),
            ("seed", self.seed.to_value()),
            ("rates", self.rates.to_value()),
            ("per_rack", self.per_rack.to_value()),
            ("racks_per_row", self.racks_per_row.to_value()),
            ("inlets_c", self.inlets_c.to_value()),
            ("presets", PRESET_SLUGS.to_vec().to_value()),
            ("knobs", KNOBS.to_vec().to_value()),
            ("envelope_c", THERMAL_ENVELOPE.get().to_value()),
            ("p95_limit_ms", P95_LIMIT_MS.to_value()),
            ("tolerance", TOLERANCE.to_value()),
        ])
    }

    fn run(&self) -> Result<RunOutput, LabError> {
        let mut outcomes = Vec::new();
        let mut full_sims = 0;
        for preset in PRESET_SLUGS {
            let (outcome, sims) = self.plan_preset(preset)?;
            outcomes.push(outcome);
            full_sims += sims;
        }
        let candidates_screened: usize = outcomes.iter().map(|o| o.candidates_screened).sum();

        let mut report = String::new();
        outln!(
            report,
            "two-stage capacity plan: envelope {:.2} C, p95 <= {:.1} ms; \
             {} candidates screened by surrogate, {} full simulations \
             (training + holdout + frontier verification)",
            THERMAL_ENVELOPE.get(),
            P95_LIMIT_MS,
            candidates_screened,
            full_sims
        );
        for outcome in &outcomes {
            outln!(report, "{}", rule(86));
            outln!(
                report,
                "{}: {} grid + {} holdout sims; cross-validation max rel err {:.4} ({}), \
                 gate {:.2} on {:?}; frontier {} verified, {} verdicts agree",
                outcome.preset,
                outcome.grid_points,
                outcome.holdout_points,
                outcome.cross_validation.max_rel_err,
                outcome.cross_validation.worst_output,
                TOLERANCE,
                GATE_OUTPUTS,
                outcome.frontier_verified,
                outcome.verification_agreements
            );
            outln!(
                report,
                "{:>6} {:>6} {:>8} {:>4} {:>9} {:>7} {:>10} {:>9} {:>9}",
                "rate",
                "racks",
                "inlet C",
                "dtm",
                "max/rack",
                "drives",
                "confirmed",
                "peak C",
                "p95 ms"
            );
            for row in &outcome.plan {
                outln!(
                    report,
                    "{:>6.0} {:>6} {:>8.1} {:>4} {:>9} {:>7} {:>10} {:>9.2} {:>9.2}",
                    row.rate,
                    row.racks_per_row,
                    row.inlet_c,
                    row.dtm,
                    row.max_per_rack,
                    row.max_drives,
                    row.confirmed,
                    row.verified_peak_air_c,
                    row.verified_p95_ms
                );
            }
        }

        let payload = PlanPayload {
            envelope_c: THERMAL_ENVELOPE.get(),
            p95_limit_ms: P95_LIMIT_MS,
            tolerance: TOLERANCE,
            gate_outputs: GATE_OUTPUTS.iter().map(|s| s.to_string()).collect(),
            full_sims,
            candidates_screened,
            presets: outcomes,
        };
        Ok(RunOutput::single(
            "capacity_plan",
            payload.to_value(),
            report,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_plan_screens_verifies_and_gates() {
        let out = CapacityPlan::at_scale(Scale::Quick).run().unwrap();
        let payload = &out.json[0].1;
        let field = |v: &Value, k: &str| v.get(k).cloned().expect("field present");
        let presets = field(payload, "presets");
        let presets = presets.as_array().expect("preset outcomes");
        assert_eq!(presets.len(), 5);
        let screened = field(payload, "candidates_screened").as_u64().unwrap();
        let sims = field(payload, "full_sims").as_u64().unwrap();
        assert!(
            screened > sims,
            "the screen must cover more candidates ({screened}) than \
             the full simulator ran ({sims})"
        );
        for preset in presets {
            let cv = field(preset, "cross_validation");
            let per_output = field(&cv, "per_output");
            for entry in per_output.as_array().expect("per-output errors") {
                let pair = entry.as_array().expect("(name, err) pair");
                let name = pair[0].as_str().unwrap();
                let err = pair[1].as_f64().unwrap();
                if GATE_OUTPUTS.contains(&name) {
                    assert!(
                        err <= TOLERANCE,
                        "{}: gated output {name} err {err} exceeds {TOLERANCE}",
                        field(preset, "preset")
                    );
                }
            }
            let plan = field(preset, "plan");
            let plan = plan.as_array().expect("plan rows");
            assert!(!plan.is_empty());
            // At the coolest inlet the whole range is feasible; the
            // screen should find a nonzero density somewhere.
            assert!(
                plan.iter()
                    .any(|r| field(r, "max_per_rack").as_u64().unwrap() > 0),
                "no feasible density found for {}",
                field(preset, "preset")
            );
        }
    }

    #[test]
    fn candidates_densify_the_per_rack_range() {
        let plan = CapacityPlan::at_scale(Scale::Quick);
        let candidates = plan.candidates();
        let lo = plan.per_rack.first().copied().unwrap() as usize;
        let hi = plan.per_rack.last().copied().unwrap() as usize;
        let densities: std::collections::BTreeSet<usize> = candidates
            .iter()
            .map(|c| c[PER_RACK_AXIS] as usize)
            .collect();
        assert_eq!(densities.len(), hi - lo + 1);
    }
}
