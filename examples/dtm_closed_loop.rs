//! Closed-loop dynamic thermal management demo.
//!
//! Takes a drive designed for average-case behaviour (its worst case
//! exceeds the envelope), serves the same seek-heavy request stream
//! under three policies, and compares temperature and response time:
//!
//! - no control (the envelope is violated),
//! - VCM+RPM throttling (the Figure 6(b) mechanism),
//! - slack ramping on an envelope-design at a two-speed disk (§5.2).
//!
//! One drive under closed-loop control is a one-bay `diskfleet` fleet
//! with one control window per sync epoch.
//!
//! Run with: `cargo run --release --example dtm_closed_loop`

use diskfleet::{Fleet, FleetConfig, FleetDtmPolicy};
use thermodisk::prelude::*;
use thermodisk::thermal::NodeTemps;
use units::{Seconds, TempDelta};

fn trace(capacity: u64, n: u64, rate: f64) -> Vec<Request> {
    (0..n)
        .map(|i| {
            Request::new(
                i,
                Seconds::new(i as f64 / rate),
                0,
                i.wrapping_mul(7_777_777) % (capacity - 64),
                8,
                if i % 4 == 0 { RequestKind::Write } else { RequestKind::Read },
            )
        })
        .collect()
}

/// Runs the trace on one drive as a one-bay fleet whose coordinator
/// decides after every 250 ms control window.
fn run(label: &str, rpm: f64, policy: FleetDtmPolicy, start_hot: bool) {
    let spec = DiskSpec::era(2002, 1, Rpm::new(rpm));
    let capacity = StorageSystem::new(SystemConfig::single_disk(spec.clone()))
        .expect("valid system")
        .logical_sectors();
    let thermal = DriveThermalSpec::new(Inches::new(2.6), 1);
    let mut config = FleetConfig::serial(1, spec, thermal, 10.0).expect("one bay");
    config.dtm = policy;
    config.windows_per_epoch = 1;
    config.start = Some(NodeTemps::uniform(if start_hot {
        // The drive has been busy and sits just below the envelope, so
        // the run shows the throttle cycling rather than a cold soak.
        THERMAL_ENVELOPE - TempDelta::new(0.4)
    } else {
        thermal.ambient()
    }));

    let report = Fleet::new(config)
        .expect("valid fleet")
        .run(trace(capacity, 6_000, 130.0))
        .expect("trace is valid");
    let bay = &report.per_enclosure[0];
    println!(
        "{label:<34} mean {:>7.2} ms  p95 {:>7.2} ms  peak {:>6.2} C  over-envelope {:>5.1} s  throttled {:>5.1} s  boosted {:>5.1} s",
        report.stats.mean().to_millis(),
        report.stats.percentile(95.0).to_millis(),
        bay.max_air.get(),
        bay.time_over_envelope.get(),
        (bay.time_gated + bay.time_scaled).get(),
        bay.time_boosted.get(),
    );
}

fn main() {
    println!(
        "DTM closed loop: 2.6\" drive, envelope {:.2} C, 6,000 seek-heavy requests\n",
        THERMAL_ENVELOPE.get()
    );

    // An average-case design: 24,534 RPM (2005's requirement) runs past
    // the envelope if the actuator never rests.
    run(
        "24,534 RPM, no control",
        24_534.0,
        FleetDtmPolicy::None,
        true,
    );
    run(
        "24,534 RPM, VCM+RPM throttle",
        24_534.0,
        FleetDtmPolicy::Throttle {
            speeds: Some((Rpm::new(24_534.0), Rpm::new(15_020.0))),
            guard: TempDelta::new(0.05),
            resume_margin: TempDelta::new(0.15),
        },
        true,
    );

    // The envelope design, static vs slack-ramping.
    run(
        "15,020 RPM, static (envelope)",
        15_020.0,
        FleetDtmPolicy::None,
        false,
    );
    run(
        "15,020 RPM base + slack ramp",
        15_020.0,
        FleetDtmPolicy::SlackRamp {
            base: Rpm::new(15_020.0),
            high: Rpm::new(26_000.0),
            slack_margin: TempDelta::new(0.5),
        },
        false,
    );

    println!(
        "\nThe throttled average-case design holds the envelope; the slack ramp\n\
         buys back response time on an envelope design whenever headroom exists."
    );
}
