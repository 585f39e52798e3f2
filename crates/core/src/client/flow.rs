//! The client's flow-control policy — a direct implementation of the
//! paper's Figure 2.
//!
//! | occupancy | frequency | request |
//! |---|---|---|
//! | 0 ‥ critical | f_urgent | emergency |
//! | critical ‥ LWM−1 | f_urgent | increase |
//! | LWM ‥ HWM−1, falling | f_normal | increase |
//! | LWM ‥ HWM−1, rising | f_normal | decrease |
//! | HWM ‥ full | f_urgent | decrease |
//!
//! Two critical tiers (§4.1): below 15 % the emergency is *severe* (base
//! quantity 12), below 30 % it is *mild* (base quantity 6). Emergencies are
//! rate-limited client-side by a cooldown; while one is pending the policy
//! falls back to plain increase requests (the server ignores them during
//! the burst anyway).

use simnet::SimTime;

use crate::config::{
    VodConfig, CRITICAL_MILD_FRAC, CRITICAL_SEVERE_FRAC, EMERGENCY_COOLDOWN, FLOW_NORMAL_EVERY,
    FLOW_URGENT_EVERY, HIGH_WATER_FRAC, LOW_WATER_FRAC,
};
use crate::protocol::FlowRequest;

/// Occupancy band of Figure 2 (exposed for tests and the policy-table
/// experiment).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Band {
    /// Below the severe critical threshold.
    CriticalSevere,
    /// Between the severe and mild critical thresholds.
    CriticalMild,
    /// Between the mild threshold and the low water mark.
    BelowLow,
    /// Between the water marks.
    Normal,
    /// At or above the high water mark.
    AboveHigh,
}

impl Band {
    /// Stable lower-snake-case name, used by the trace JSONL export.
    pub fn name(self) -> &'static str {
        match self {
            Band::CriticalSevere => "critical_severe",
            Band::CriticalMild => "critical_mild",
            Band::BelowLow => "below_low",
            Band::Normal => "normal",
            Band::AboveHigh => "above_high",
        }
    }
}

/// Stateful implementation of the Figure 2 policy.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FlowController {
    low_water: usize,
    high_water: usize,
    critical_severe: usize,
    critical_mild: usize,
    frames_since_eval: u32,
    prev_occupancy: usize,
    last_emergency: Option<SimTime>,
    emergencies_sent: u64,
    requests_sent: u64,
}

impl FlowController {
    /// Builds the controller at the paper's thresholds, [`LOW_WATER_FRAC`]
    /// and the other constants of [`crate::config`]; no field of the
    /// configuration moves them.
    ///
    /// `total_capacity_frames` is the client's *combined* buffer space
    /// (software buffer plus the hardware decoder's capacity expressed in
    /// frames): the paper's water marks are fractions "of the total buffer
    /// space" (§4.2), which holds roughly 2.4 seconds of video.
    pub fn new(_cfg: &VodConfig, total_capacity_frames: usize) -> Self {
        let frames = total_capacity_frames.max(1) as f64;
        FlowController {
            low_water: (frames * LOW_WATER_FRAC).round() as usize,
            high_water: (frames * HIGH_WATER_FRAC).round() as usize,
            critical_severe: (frames * CRITICAL_SEVERE_FRAC).round() as usize,
            critical_mild: (frames * CRITICAL_MILD_FRAC).round() as usize,
            frames_since_eval: 0,
            prev_occupancy: 0,
            last_emergency: None,
            emergencies_sent: 0,
            requests_sent: 0,
        }
    }

    /// The Figure 2 band of an occupancy value.
    pub fn band(&self, occupancy: usize) -> Band {
        if occupancy < self.critical_severe {
            Band::CriticalSevere
        } else if occupancy < self.critical_mild {
            Band::CriticalMild
        } else if occupancy < self.low_water {
            Band::BelowLow
        } else if occupancy < self.high_water {
            Band::Normal
        } else {
            Band::AboveHigh
        }
    }

    /// The request Figure 2 prescribes for `occupancy`, given the occupancy
    /// at the previous evaluation (`prev`). `None` in the steady row
    /// (occupancy unchanged between the water marks).
    pub fn decision(&self, occupancy: usize, prev: usize) -> Option<FlowRequest> {
        match self.band(occupancy) {
            Band::CriticalSevere => Some(FlowRequest::Emergency { severe: true }),
            Band::CriticalMild => Some(FlowRequest::Emergency { severe: false }),
            Band::BelowLow => Some(FlowRequest::Increase),
            Band::Normal => {
                if occupancy < prev {
                    Some(FlowRequest::Increase)
                } else if occupancy > prev {
                    Some(FlowRequest::Decrease)
                } else {
                    None
                }
            }
            Band::AboveHigh => Some(FlowRequest::Decrease),
        }
    }

    /// Evaluation period (in received frames) for `occupancy`: `f_normal`
    /// between the water marks, `f_urgent` (doubled frequency) outside.
    pub fn check_every(&self, occupancy: usize) -> u32 {
        match self.band(occupancy) {
            Band::Normal => FLOW_NORMAL_EVERY,
            _ => FLOW_URGENT_EVERY,
        }
    }

    /// Feeds one received frame into the policy. Returns a request to send
    /// to the server, or `None` when it is not yet time (or the occupancy
    /// is steady).
    pub fn on_frame_received(&mut self, now: SimTime, occupancy: usize) -> Option<FlowRequest> {
        self.frames_since_eval += 1;
        if self.frames_since_eval < self.check_every(occupancy) {
            return None;
        }
        self.frames_since_eval = 0;
        let prev = self.prev_occupancy;
        self.prev_occupancy = occupancy;
        let mut request = self.decision(occupancy, prev)?;
        if let FlowRequest::Emergency { .. } = request {
            let in_cooldown = self
                .last_emergency
                .is_some_and(|at| now.saturating_since(at) < EMERGENCY_COOLDOWN);
            if in_cooldown {
                request = FlowRequest::Increase;
            } else {
                self.last_emergency = Some(now);
                self.emergencies_sent += 1;
            }
        }
        self.requests_sent += 1;
        Some(request)
    }

    /// Number of emergency requests issued so far.
    pub fn emergencies_sent(&self) -> u64 {
        self.emergencies_sent
    }

    /// Total flow-control requests issued so far.
    pub fn requests_sent(&self) -> u64 {
        self.requests_sent
    }

    /// The low water mark, in frames.
    pub fn low_water(&self) -> usize {
        self.low_water
    }

    /// The high water mark, in frames.
    pub fn high_water(&self) -> usize {
        self.high_water
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller() -> FlowController {
        // Thresholds computed over a 37-frame capacity to keep the test
        // numbers aligned with the software-buffer fractions of §4.2.
        FlowController::new(&VodConfig::paper_default(), 37)
    }

    fn at(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn bands_follow_paper_thresholds() {
        // 37-frame buffer: severe < 6, mild < 11, LWM 27, HWM 33.
        let fc = controller();
        assert_eq!(fc.band(0), Band::CriticalSevere);
        assert_eq!(fc.band(5), Band::CriticalSevere);
        assert_eq!(fc.band(6), Band::CriticalMild);
        assert_eq!(fc.band(10), Band::CriticalMild);
        assert_eq!(fc.band(11), Band::BelowLow);
        assert_eq!(fc.band(26), Band::BelowLow);
        assert_eq!(fc.band(27), Band::Normal);
        assert_eq!(fc.band(32), Band::Normal);
        assert_eq!(fc.band(33), Band::AboveHigh);
        assert_eq!(fc.band(37), Band::AboveHigh);
    }

    #[test]
    fn decision_table_matches_figure_2() {
        let fc = controller();
        assert_eq!(
            fc.decision(2, 30),
            Some(FlowRequest::Emergency { severe: true })
        );
        assert_eq!(
            fc.decision(8, 30),
            Some(FlowRequest::Emergency { severe: false })
        );
        assert_eq!(fc.decision(20, 30), Some(FlowRequest::Increase));
        assert_eq!(fc.decision(30, 31), Some(FlowRequest::Increase), "falling");
        assert_eq!(fc.decision(30, 29), Some(FlowRequest::Decrease), "rising");
        assert_eq!(fc.decision(30, 30), None, "steady");
        assert_eq!(fc.decision(35, 30), Some(FlowRequest::Decrease));
    }

    #[test]
    fn urgent_frequency_doubles() {
        let fc = controller();
        assert_eq!(fc.check_every(30), 8, "normal band");
        assert_eq!(fc.check_every(20), 4, "below LWM");
        assert_eq!(fc.check_every(36), 4, "above HWM");
        assert_eq!(fc.check_every(2), 4, "critical");
    }

    #[test]
    fn requests_paced_by_frame_count() {
        let mut fc = controller();
        // Occupancy 20 (below LWM): urgent, every 4 frames.
        for i in 1..=3 {
            assert_eq!(fc.on_frame_received(at(i), 20), None);
        }
        assert_eq!(fc.on_frame_received(at(4), 20), Some(FlowRequest::Increase));
        // Counter reset: three more Nones.
        assert_eq!(fc.on_frame_received(at(5), 20), None);
    }

    #[test]
    fn emergency_cooldown_falls_back_to_increase() {
        let mut fc = controller();
        // Four frames at critical occupancy trigger a severe emergency.
        let mut got = None;
        for i in 0..4u64 {
            got = fc.on_frame_received(SimTime::from_millis(i * 30), 2);
        }
        assert_eq!(got, Some(FlowRequest::Emergency { severe: true }));
        assert_eq!(fc.emergencies_sent(), 1);
        // 120 ms later (cooldown is 2 s), still critical: downgraded.
        let mut got = None;
        for i in 4..8u64 {
            got = fc.on_frame_received(SimTime::from_millis(i * 30), 2);
        }
        assert_eq!(got, Some(FlowRequest::Increase));
        assert_eq!(fc.emergencies_sent(), 1);
    }

    #[test]
    fn emergency_allowed_after_cooldown() {
        let mut fc = controller();
        for i in 0..4 {
            fc.on_frame_received(at(i), 2);
        }
        assert_eq!(fc.emergencies_sent(), 1);
        // Five seconds later (cooldown is 2 s) another one may fire.
        let mut got = None;
        for i in 100..104 {
            got = fc.on_frame_received(at(i), 8);
        }
        assert_eq!(got, Some(FlowRequest::Emergency { severe: false }));
        assert_eq!(fc.emergencies_sent(), 2);
    }

    #[test]
    fn steady_normal_band_emits_nothing() {
        let mut fc = controller();
        // Bring prev to 30 first.
        for i in 0..8 {
            fc.on_frame_received(at(i), 30);
        }
        let mut sent = 0;
        for i in 8..32 {
            if fc.on_frame_received(at(i), 30).is_some() {
                sent += 1;
            }
        }
        assert_eq!(sent, 0, "steady occupancy between water marks is silent");
    }
}
