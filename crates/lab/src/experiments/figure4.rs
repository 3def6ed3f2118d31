//! Figure 4: response-time CDFs of five server workloads as spindle
//! speed increases in +5,000 RPM steps (thermal effects deliberately
//! ignored, as in the paper).
//!
//! The paper replays 3–6 million requests per trace; [`Figure4`]
//! replays 200,000 per workload at full scale and 2,000 under
//! `--quick`.

use crate::engine::{default_parallelism, parallel_map};
use crate::experiments::config_object;
use crate::text::{out, outln, rule};
use crate::{Experiment, LabError, RunOutput, Scale};
use serde::Serialize;
use serde_json::Value;
use units::Rpm;
use workloads::presets;

#[derive(Serialize)]
struct WorkloadResult {
    name: String,
    rpm: f64,
    requests: u64,
    mean_ms: f64,
    p95_ms: f64,
    cdf: Vec<(f64, f64)>,
}

/// The spindle-speed / response-time experiment.
pub struct Figure4 {
    /// Requests replayed per workload.
    pub requests: usize,
    /// Trace-generator seed.
    pub seed: u64,
}

impl Figure4 {
    /// Paper-shaped defaults at the given scale.
    pub fn at_scale(scale: Scale) -> Self {
        Figure4 {
            requests: match scale {
                Scale::Full => 200_000,
                Scale::Quick => 2_000,
            },
            seed: 42,
        }
    }
}

impl Experiment for Figure4 {
    fn name(&self) -> &'static str {
        "figure4"
    }

    fn config(&self) -> Value {
        config_object(vec![
            ("requests", self.requests.to_value()),
            ("seed", self.seed.to_value()),
        ])
    }

    fn run(&self) -> Result<RunOutput, LabError> {
        let mut report = String::new();
        let n = self.requests;

        outln!(report, "Figure 4: response times vs spindle speed ({n} requests per workload)");

        // Each (workload, RPM) replay is independent, and the replays
        // dominate the experiment's wall time: run the full 5×4 grid in
        // parallel, then render the tables serially in the fixed order.
        let all = presets();
        let jobs: Vec<(usize, f64)> = all
            .iter()
            .enumerate()
            .flat_map(|(pi, preset)| {
                let base = preset.base_rpm.get();
                (0..4).map(move |i| (pi, base + i as f64 * 5_000.0))
            })
            .collect();
        let runs = parallel_map(jobs, default_parallelism(), |(pi, rpm)| {
            let preset = &all[pi];
            preset
                .run(Rpm::new(rpm), n, self.seed)
                .map_err(|e| LabError::Experiment(format!("{}: {e}", preset.name)))
        });
        let mut runs = runs.into_iter();

        let mut results = Vec::new();
        for preset in &all {
            let base = preset.base_rpm.get();
            let steps: Vec<f64> = (0..4).map(|i| base + i as f64 * 5_000.0).collect();

            outln!(report, "\n{} ({} disks{}, base {:.0} RPM; paper mean at base: {:.2} ms)",
                preset.name,
                preset.disks,
                if preset.raid.is_some() { ", RAID-5" } else { "" },
                base,
                preset.paper_mean_response_ms,
            );
            outln!(report, "{}", rule(100));
            out!(report, "{:>10} |", "RPM");
            for edge in disksim::CDF_BUCKETS_MS {
                out!(report, " {:>6.0}", edge);
            }
            outln!(report, " {:>6} | {:>9}", "200+", "mean ms");
            outln!(report, "{}", rule(100));

            let mut means = Vec::new();
            for &rpm in &steps {
                let stats = runs.next().expect("one replay per grid cell")?;
                let cdf = stats.cdf();
                out!(report, "{:>10.0} |", rpm);
                for &(_, frac) in &cdf[..cdf.len() - 1] {
                    out!(report, " {:>6.3}", frac);
                }
                outln!(report, " {:>6.3} | {:>9.2}", 1.0, stats.mean().to_millis());
                means.push(stats.mean().to_millis());
                results.push(WorkloadResult {
                    name: preset.name.to_string(),
                    rpm,
                    requests: stats.count(),
                    mean_ms: stats.mean().to_millis(),
                    p95_ms: stats.percentile(95.0).to_millis(),
                    cdf,
                });
            }
            outln!(report, "{}", rule(100));
            let improv_5k = (means[0] - means[1]) / means[0] * 100.0;
            let improv_10k = (means[0] - means[2]) / means[0] * 100.0;
            outln!(
                report,
                "  mean response: {:.2} -> {:.2} -> {:.2} -> {:.2} ms; +5K RPM buys {:.1}%, +10K {:.1}%",
                means[0], means[1], means[2], means[3], improv_5k, improv_10k
            );
        }
        outln!(report, "\nPaper: +5K RPM improves means by 20.8% (OLTP) to 52.5% (OpenMail);");
        outln!(report, "+10K RPM lands in the 30-60% band across workloads.");

        Ok(RunOutput::single("figure4", results.to_value(), report))
    }
}
