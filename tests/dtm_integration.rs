//! §5 end-to-end: thermal slack, dynamic throttling and closed-loop DTM
//! on one drive — a one-bay fleet whose coordinator decides after every
//! control window.

use diskfleet::{EnclosureReport, Fleet, FleetConfig, FleetDtmPolicy, FleetError, FleetReport};
use dtm::{
    slack_roadmap, slack_table, throttling_curve, SlackConfig, ThrottleExperiment, ThrottlePolicy,
};
use thermodisk::prelude::*;
use thermodisk::thermal::{NodeTemps, TempSensor};
use units::{Seconds, TempDelta};

/// One 2.6" single-platter drive at `rpm` as a one-bay fleet deciding
/// after every 250 ms window, started at `start` (its idle steady state
/// when `None`).
fn one_bay(rpm: f64, dtm: FleetDtmPolicy, start: Option<NodeTemps>) -> FleetConfig {
    let mut config = FleetConfig::serial(
        1,
        DiskSpec::era(2002, 1, Rpm::new(rpm)),
        DriveThermalSpec::new(Inches::new(2.6), 1),
        10.0,
    )
    .unwrap();
    config.dtm = dtm;
    config.windows_per_epoch = 1;
    config.start = start;
    config
}

/// Logical sectors of the drive `one_bay` builds at `rpm`.
fn capacity(rpm: f64) -> u64 {
    StorageSystem::new(SystemConfig::single_disk(DiskSpec::era(2002, 1, Rpm::new(rpm))))
        .unwrap()
        .logical_sectors()
}

/// Runs `trace` through a one-bay fleet; returns the report and its bay.
fn run_one_bay(config: FleetConfig, trace: Vec<Request>) -> (FleetReport, EnclosureReport) {
    let report = Fleet::new(config).unwrap().run(trace).unwrap();
    let bay = report.per_enclosure[0].clone();
    (report, bay)
}

/// A seek-heavy stream, one write in three.
fn heavy_trace(n: usize, rate: f64, capacity: u64) -> Vec<Request> {
    (0..n)
        .map(|i| {
            Request::new(
                i as u64,
                Seconds::new(i as f64 / rate),
                0,
                (i as u64).wrapping_mul(7_777_777) % (capacity - 64),
                8,
                if i % 3 == 0 { RequestKind::Write } else { RequestKind::Read },
            )
        })
        .collect()
}

#[test]
fn slack_numbers_match_section_5_2() {
    let rows = slack_table(&SlackConfig::default());
    let r26 = &rows[0];
    // Paper: 15,020 -> 26,750 RPM for the 2.6" single-platter drive.
    assert!((r26.envelope_rpm.get() - 15_020.0).abs() / 15_020.0 < 0.03);
    assert!((r26.slack_rpm.get() - 26_750.0).abs() / 26_750.0 < 0.05);
    // §5.2's quoted VCM powers.
    assert!((rows[1].vcm_power.get() - 2.28).abs() < 1e-9);
    assert!((rows[2].vcm_power.get() - 0.618).abs() < 1e-9);
}

#[test]
fn slack_roadmap_beats_envelope_roadmap_everywhere() {
    let points = slack_roadmap(&SlackConfig::default());
    assert!(!points.is_empty());
    for p in &points {
        assert!(p.slack_idr > p.envelope_idr);
    }
    // §5.2: around 5.6% better for the 2.6" drive in the later years.
    let late = points
        .iter()
        .find(|p| p.year == 2009 && (p.diameter.get() - 2.6).abs() < 1e-9)
        .unwrap();
    let gain = late.slack_idr.get() / late.envelope_idr.get() - 1.0;
    assert!(
        gain > 0.3,
        "VCM-off slack should buy a large IDR margin, got {:.1}%",
        gain * 100.0
    );
}

#[test]
fn figure7a_curve_shape() {
    let (exp, policy) = ThrottleExperiment::figure7a();
    let curve = throttling_curve(&exp, policy, &[0.5, 1.0, 2.0, 4.0, 8.0]);
    assert_eq!(curve.len(), 5);
    // Monotone decreasing.
    for w in curve.windows(2) {
        assert!(w[1].1 <= w[0].1 + 1e-9, "curve {curve:?}");
    }
    // Ratio >= 1 needs ~second-level granularity; it is lost by 4 s.
    assert!(curve[0].1 > 1.0, "0.5 s ratio {:.2}", curve[0].1);
    assert!(curve[3].1 < 1.0, "4 s ratio {:.2}", curve[3].1);
}

#[test]
fn figure7b_feasibility_boundaries() {
    let (exp, policy) = ThrottleExperiment::figure7b();
    // VCM-only cannot cool a 37,001 RPM drive (VCM-off steady 53.04 C).
    assert!(!exp.is_feasible(ThrottlePolicy::VcmOnly {
        rpm: Rpm::new(37_001.0)
    }));
    // Dropping to 22,001 RPM restores feasibility.
    assert!(exp.is_feasible(policy));
    let curve = throttling_curve(&exp, policy, &[0.5, 2.0, 8.0]);
    assert_eq!(curve.len(), 3);
    assert!(curve[0].1 > curve[2].1);
}

#[test]
fn closed_loop_throttling_respects_envelope_and_completes_work() {
    // A 24,534 RPM average-case design serving a seek-heavy stream.
    let capacity = capacity(24_534.0);
    let model = ThermalModel::new(DriveThermalSpec::new(Inches::new(2.6), 1));
    let start = model.steady_state(OperatingPoint::new(Rpm::new(24_534.0), 0.3));

    let trace: Vec<Request> = (0..3_000u64)
        .map(|i| {
            Request::new(
                i,
                Seconds::new(i as f64 / 130.0),
                0,
                i.wrapping_mul(9_999_991) % (capacity - 64),
                8,
                if i % 4 == 0 { RequestKind::Write } else { RequestKind::Read },
            )
        })
        .collect();

    let policy = FleetDtmPolicy::Throttle {
        speeds: Some((Rpm::new(24_534.0), Rpm::new(15_020.0))),
        guard: TempDelta::new(0.05),
        resume_margin: TempDelta::new(0.15),
    };
    let (report, bay) = run_one_bay(one_bay(24_534.0, policy, Some(start)), trace);

    assert_eq!(report.stats.count(), 3_000, "all requests complete");
    assert!(
        bay.max_air.get() <= THERMAL_ENVELOPE.get() + 0.35,
        "peak {:.2} C",
        bay.max_air.get()
    );
}

#[test]
fn slack_ramp_outperforms_static_envelope_design() {
    // The §5.2 promise, closed-loop: a two-speed disk that ramps into
    // the slack beats the static envelope design on response time while
    // staying inside the envelope. Both start cold, at ambient.
    let capacity = capacity(15_020.0);
    let trace: Vec<Request> = (0..3_000u64)
        .map(|i| {
            Request::new(
                i,
                Seconds::new(i as f64 / 110.0),
                0,
                i.wrapping_mul(6_700_417) % (capacity - 64),
                8,
                RequestKind::Read,
            )
        })
        .collect();
    let cold = Some(NodeTemps::uniform(Celsius::new(28.0)));

    let (static_report, _) =
        run_one_bay(one_bay(15_020.0, FleetDtmPolicy::None, cold), trace.clone());
    let ramp = FleetDtmPolicy::SlackRamp {
        base: Rpm::new(15_020.0),
        high: Rpm::new(26_000.0),
        slack_margin: TempDelta::new(0.5),
    };
    let (ramp_report, ramp_bay) = run_one_bay(one_bay(15_020.0, ramp, cold), trace);

    assert!(ramp_bay.time_boosted.get() > 0.0);
    assert!(
        ramp_report.stats.mean() < static_report.stats.mean(),
        "boost: {:.2} ms vs static {:.2} ms",
        ramp_report.stats.mean().to_millis(),
        static_report.stats.mean().to_millis()
    );
    assert!(ramp_bay.max_air.get() <= THERMAL_ENVELOPE.get() + 0.35);
}

/// The one-bay closed loop, pinned: for each policy, the bits of its
/// response mean, p95 and max; peak and mean air; time over the
/// envelope; mean duty; total time; throttled (gated or downshifted)
/// and boosted time; and spindle, actuator and electronics energy with
/// the metered time. The same 1,500-request seek-heavy stream at 120/s
/// runs on a 2.6" drive. DTM time counts the windows each state was
/// actually served in, so a run whose last decision closes the gate
/// reads no time for the epoch that never runs.
#[test]
fn one_bay_closed_loop_is_pinned() {
    let hot = |c: f64| Some(NodeTemps::uniform(Celsius::new(c)));
    type Case = (&'static str, f64, FleetDtmPolicy, Option<NodeTemps>, bool, [u64; 14]);
    let cases: [Case; 5] = [
        (
            "no control",
            24_534.0,
            FleetDtmPolicy::None,
            hot(44.9),
            false,
            [
                0x3f72c34a8ce9ede6, 0x3f86a7ef9db22d0e, 0x3f8abff466b7fc00, 0x4046aa167142167d,
                0x4046a8a5546fa028, 0x4028800000000000, 0x3fd500e6b23fd38e, 0x4029000000000000,
                0x0000000000000000, 0x0000000000000000, 0x409348697ac0acff, 0x402fff5f738d3c47,
                0x4049000000000000, 0x4029000000000000,
            ],
        ),
        (
            "VCM-only throttle",
            24_534.0,
            FleetDtmPolicy::Throttle {
                speeds: None,
                guard: TempDelta::new(0.1),
                resume_margin: TempDelta::new(0.2),
            },
            hot(44.8),
            false,
            [
                0x405769aa31075512, 0x4059ba5e353f7cee, 0x405a4617d1a88af4, 0x404697997d03b8e8,
                0x404681e055fe9047, 0x0000000000000000, 0x3f843b2837a8e106, 0x405a800000000000,
                0x4059800000000000, 0x0000000000000000, 0x40c47098c4ad8447, 0x401055c3c5bda817,
                0x407a800000000000, 0x405a800000000000,
            ],
        ),
        (
            "VCM+RPM throttle",
            24_534.0,
            FleetDtmPolicy::Throttle {
                speeds: Some((Rpm::new(24_534.0), Rpm::new(15_020.0))),
                guard: TempDelta::new(0.3),
                resume_margin: TempDelta::new(0.2),
            },
            hot(44.9),
            false,
            [
                0x403d5535d5c335a3, 0x40420c49ba5e353f, 0x4042f968ec905d4e, 0x404698df84080582,
                0x40466e64b3cefad3, 0x0000000000000000, 0x3f9a0253fa3e773d, 0x4043600000000000,
                0x4043200000000000, 0x0000000000000000, 0x408f69d84b9fbc22, 0x400eb53fa6344046,
                0x4063600000000000, 0x4043600000000000,
            ],
        ),
        (
            "speed scaling",
            24_534.0,
            FleetDtmPolicy::SpeedScale {
                high: Rpm::new(24_534.0),
                low: Rpm::new(15_020.0),
                guard: TempDelta::new(0.1),
                resume_margin: TempDelta::new(0.05),
            },
            hot(44.9),
            false,
            [
                0x3f764f277dd5c144, 0x3f8872b020c49ba6, 0x3f8db9c52e26a000, 0x404698df84080582,
                0x4046910015f8d500, 0x0000000000000000, 0x3fd500e6b23fd38e, 0x4029000000000000,
                0x4028800000000000, 0x0000000000000000, 0x4074acf2a311d626, 0x402fff5f738d3c47,
                0x4049000000000000, 0x4029000000000000,
            ],
        ),
        (
            "slack ramp, SMART sensor, cold start",
            15_020.0,
            FleetDtmPolicy::SlackRamp {
                base: Rpm::new(15_020.0),
                high: Rpm::new(26_750.0),
                slack_margin: TempDelta::new(0.5),
            },
            hot(28.0),
            true,
            [
                0x3f7238491f2dc945, 0x3f86666666666666, 0x3f891b27635d3e00, 0x403cf8cc9b316a7a,
                0x403cb9e77136ecc0, 0x0000000000000000, 0x3fd500e6b23fd38e, 0x4029000000000000,
                0x0000000000000000, 0x4029000000000000, 0x409890c8635dd6f3, 0x402fff5f738d3c47,
                0x4049000000000000, 0x4029000000000000,
            ],
        ),
    ];
    let mut moved = Vec::new();
    for (label, rpm, dtm, start, smart, pinned) in cases {
        let mut config = one_bay(rpm, dtm, start);
        if smart {
            config.sensor = TempSensor::smart_style();
        }
        let (report, bay) = run_one_bay(config, heavy_trace(1_500, 120.0, capacity(rpm)));
        assert_eq!(report.stats.count(), 1_500, "{label}");
        let got = [
            report.stats.mean().get(),
            report.stats.percentile(95.0).get(),
            report.stats.max().get(),
            bay.max_air.get(),
            bay.mean_air.get(),
            bay.time_over_envelope.get(),
            bay.mean_duty,
            report.total_time.get(),
            (bay.time_gated + bay.time_scaled).get(),
            bay.time_boosted.get(),
            bay.energy.spindle_j,
            bay.energy.vcm_j,
            bay.energy.electronics_j,
            bay.energy.elapsed.get(),
        ];
        for (k, (g, want)) in got.iter().zip(pinned).enumerate() {
            if g.to_bits() != want {
                let pinned = f64::from_bits(want);
                moved.push(format!("{label}: field {k} reads {g}, pinned {pinned}"));
            }
        }
    }
    assert!(moved.is_empty(), "{moved:#?}");
}

#[test]
fn an_early_request_given_after_a_later_one_is_not_stranded() {
    // A 5-s request listed before a 0.1-s one. Served in the order
    // given, the 0.1-s request would wait behind the 5-s one for
    // ~4.65 s; in arrival order each is served on arrival.
    let at = |id, t: f64, lba| Request::new(id, Seconds::new(t), 0, lba, 8, RequestKind::Read);
    let trace = vec![at(0, 5.0, 1_000), at(1, 0.1, 2_000)];
    let (report, _) = run_one_bay(one_bay(15_020.0, FleetDtmPolicy::None, None), trace);
    assert_eq!(report.stats.count(), 2);
    let slowest = report.stats.max().to_millis();
    assert!(slowest < 10.0, "a request took {slowest} ms");
}

#[test]
fn non_finite_arrivals_are_a_typed_error() {
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut trace = heavy_trace(64, 120.0, capacity(15_020.0));
        for r in trace.iter_mut().skip(7).step_by(9) {
            r.arrival = Seconds::new(bad);
        }
        let err = Fleet::new(one_bay(15_020.0, FleetDtmPolicy::None, None))
            .unwrap()
            .run(trace)
            .unwrap_err();
        assert!(
            matches!(err, FleetError::NonFiniteArrival { id: 7 }),
            "arrival {bad}: {err}"
        );
    }
}
