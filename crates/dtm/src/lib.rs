//! Dynamic Thermal Management (§5).
//!
//! Two families of mechanisms for buying back the IDR the thermal
//! envelope takes away:
//!
//! - **Thermal slack** ([`slack_table`] / [`slack_roadmap`]): the
//!   envelope assumes the actuator never rests; when the VCM is off
//!   (idle or sequential periods) the drive runs cooler, and a
//!   multi-speed disk can spend the difference on extra RPM (Figure 5).
//! - **Dynamic throttling** ([`ThrottleExperiment`]): design the drive
//!   *past* the worst-case envelope and pause request service
//!   (optionally also dropping to a lower spindle speed) whenever the
//!   temperature nears the limit — Figures 6 and 7's throttling-ratio
//!   analysis.
//!
//! Both are open-loop analyses of the thermal model. The closed loop —
//! the control-policy evaluation the paper leaves as future work — is
//! the fleet in `diskfleet`, whose bays serve requests in control
//! windows under a DTM coordinator; one drive is a one-bay fleet.
//!
//! # Examples
//!
//! ```
//! use dtm::{slack_table, SlackConfig};
//!
//! let rows = slack_table(&SlackConfig::default());
//! // §5.2: the 2.6" drive can ramp from ~15,020 to ~26,750 RPM when
//! // the VCM is off.
//! let r26 = &rows[0];
//! assert!(r26.slack_rpm.get() > r26.envelope_rpm.get() + 8_000.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod slack;
mod throttle;

pub use slack::{slack_roadmap, slack_table, SlackConfig, SlackRoadmapPoint, SlackRow};
pub use throttle::{throttling_curve, throttling_ratio, ThrottleExperiment, ThrottlePolicy};
