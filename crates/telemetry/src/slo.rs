//! Streaming fairness-SLO evaluation on **sim-time** windows.
//!
//! Each [`SloRule`] watches one scalar health signal (fairness error vs the
//! policy target for a subtree, a user's starvation age, cross-site view
//! divergence, per-link gossip staleness, convergence lag) against a fixed
//! threshold. Rather than alerting on the first bad sample, the engine runs
//! the multi-window **burn-rate** scheme from SRE practice: every
//! observation covers the sim-time interval since the previous one, the
//! engine keeps the time-weighted fraction of *bad* time over a short and a
//! long window, and an alert only fires when both windows burn the error
//! budget faster than `burn_factor`. The short window makes detection fast;
//! the long window filters blips.
//!
//! The alert lifecycle is `Ok → Pending → Firing → Ok`:
//!
//! * `Ok → Pending` (`"pending"`): the short window burns hot but the long
//!   window is still inside budget — an early warning.
//! * `→ Firing` (`"firing"`): both windows burn hot.
//! * `Firing → Ok` (`"resolved"`): the short-window burn fell below
//!   `resolve_factor`.
//! * `Pending → Ok` (`"cleared"`): the early warning subsided without ever
//!   firing.
//!
//! Every quantity the engine consumes or emits is sim time, so the alert
//! stream is bit-identical across worker counts — the same property the
//! folded profiles have. Two details keep it honest on real runs:
//!
//! * **Full-window denominators.** The bad fraction divides by the *full*
//!   window length even when the run is younger than the window, so the
//!   first bad sample of a fresh run cannot alone represent a 100% burn.
//! * **Warmup grace.** Observations before [`SloConfig::warmup_s`] are
//!   recorded as good: the first completing user transiently holds 100% of
//!   the observed usage, which is a property of an empty grid, not a
//!   fairness breach.

use std::collections::{BTreeMap, VecDeque};

/// Thresholds and burn-rate windows for the SLO engine. Fields set to `0.0`
/// where a comment says *auto* are resolved by the caller from the
/// scenario's gossip timings before rules are built.
#[derive(Clone, Debug, PartialEq)]
pub struct SloConfig {
    /// Fairness rules: absolute share error above this is a bad sample.
    /// The default tolerates the structural deviation of unsaturated runs
    /// (every active user converges to `1/n_active` regardless of target).
    pub fairness_threshold: f64,
    /// Starvation rules: a user below `starvation_frac · target` is
    /// accruing starvation age.
    pub starvation_frac: f64,
    /// Starvation rules: accrued age above this is a bad sample.
    pub starvation_age_s: f64,
    /// Staleness rules: a link's undelivered-data age above this is a bad
    /// sample. `0.0` = auto: `3 × (publish + exchange latency + ack
    /// timeout)`, three missed delivery opportunities.
    pub staleness_threshold_s: f64,
    /// Divergence rule: cross-site usage-view divergence (core-seconds)
    /// above this is a bad sample. `0.0` = auto from grid size and
    /// cadences.
    pub divergence_threshold: f64,
    /// Convergence-lag rule: sim seconds since the views were last within
    /// the divergence threshold; above this is a bad sample.
    pub convergence_lag_s: f64,
    /// Fast-detection window.
    pub short_window_s: f64,
    /// Blip-filter window.
    pub long_window_s: f64,
    /// Error budget: the tolerated bad-time fraction per window.
    pub budget: f64,
    /// Both windows must burn the budget at ≥ this multiple to fire.
    pub burn_factor: f64,
    /// A firing alert resolves when the short-window burn drops below this.
    pub resolve_factor: f64,
    /// Observations before this sim time are recorded as good.
    pub warmup_s: f64,
}

impl Default for SloConfig {
    fn default() -> Self {
        Self {
            fairness_threshold: 0.5,
            starvation_frac: 0.25,
            starvation_age_s: 3600.0,
            staleness_threshold_s: 0.0,
            divergence_threshold: 0.0,
            convergence_lag_s: 600.0,
            short_window_s: 300.0,
            long_window_s: 1200.0,
            budget: 0.05,
            burn_factor: 2.0,
            resolve_factor: 1.0,
            warmup_s: 300.0,
        }
    }
}

/// One streaming rule: a named signal compared against a threshold. The
/// rule-kind lives in the `id` prefix (`fairness:`, `starvation:`,
/// `staleness:`, …); the engine itself is kind-agnostic.
#[derive(Clone, Debug, PartialEq)]
pub struct SloRule {
    /// Stable identifier, e.g. `staleness:1->0` or `fairness:U65`.
    pub id: String,
    /// Values strictly above this are bad samples.
    pub threshold: f64,
}

/// Lifecycle state of one rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum AlertState {
    /// Inside budget.
    Ok,
    /// Short window burning hot; long window still inside budget.
    Pending,
    /// Both windows burning hot.
    Firing,
}

/// One lifecycle transition, stamped with sim time.
#[derive(Clone, Debug, PartialEq)]
pub struct AlertEvent {
    /// Sim time of the transition.
    pub t_s: f64,
    /// The rule's `id`.
    pub rule: String,
    /// `"pending"`, `"firing"`, `"resolved"`, or `"cleared"`.
    pub transition: &'static str,
    /// The observed value at the transition.
    pub value: f64,
    /// Short-window burn rate (bad fraction / budget) at the transition.
    pub burn_short: f64,
    /// Long-window burn rate at the transition.
    pub burn_long: f64,
}

fn num(v: f64) -> String {
    format!("{v:?}")
}

impl AlertEvent {
    /// One canonical JSON object (no trailing newline). Deterministic:
    /// shortest round-tripping float rendering, fixed key order.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"t_s\":{},\"rule\":\"{}\",\"transition\":\"{}\",\"value\":{},\
             \"burn_short\":{},\"burn_long\":{}}}",
            num(self.t_s),
            crate::json::escape(&self.rule),
            self.transition,
            num(self.value),
            num(self.burn_short),
            num(self.burn_long),
        )
    }
}

/// Render an alert stream as JSONL, one event per line.
pub fn alerts_to_jsonl(events: &[AlertEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&ev.to_json());
        out.push('\n');
    }
    out
}

#[derive(Debug)]
struct RuleState {
    /// `(t, dt, bad)`: the observation at sim time `t` covered the interval
    /// `(t - dt, t]`.
    window: VecDeque<(f64, f64, bool)>,
    /// Bad entries currently in `window` — lets the healthy-rule fast path
    /// skip the window scan entirely (burn rates are exactly 0.0).
    bad_entries: usize,
    prev_t: Option<f64>,
    state: AlertState,
}

/// The streaming evaluator: feed it one aligned value per rule at each
/// sample barrier; it returns the lifecycle transitions that occurred.
#[derive(Debug)]
pub struct SloEngine {
    cfg: SloConfig,
    rules: Vec<SloRule>,
    states: Vec<RuleState>,
    log: Vec<AlertEvent>,
}

impl SloEngine {
    /// Build an engine over a fixed rule set (the rules must be known up
    /// front — links come from the overlay, users from the policy).
    pub fn new(cfg: SloConfig, rules: Vec<SloRule>) -> Self {
        let states = rules
            .iter()
            .map(|_| RuleState {
                window: VecDeque::new(),
                bad_entries: 0,
                prev_t: None,
                state: AlertState::Ok,
            })
            .collect();
        Self {
            cfg,
            rules,
            states,
            log: Vec::new(),
        }
    }

    /// The configured rules, in observation order.
    pub fn rules(&self) -> &[SloRule] {
        &self.rules
    }

    /// The configuration in force.
    pub fn config(&self) -> &SloConfig {
        &self.cfg
    }

    /// Consume the engine, yielding the full transition log.
    pub fn into_events(self) -> Vec<AlertEvent> {
        self.log
    }

    /// Time-weighted bad fractions of rule `idx` over the trailing short
    /// and long windows, with the **full** window as denominator. One pass
    /// over the retained entries computes both; a rule with no bad entries
    /// skips the scan outright (both fractions are exactly 0.0), which keeps
    /// the healthy-fleet steady state nearly free.
    fn bad_fracs(&self, idx: usize, now_s: f64) -> (f64, f64) {
        let st = &self.states[idx];
        if st.bad_entries == 0 {
            return (0.0, 0.0);
        }
        let cut_short = now_s - self.cfg.short_window_s;
        let cut_long = now_s - self.cfg.long_window_s;
        let mut bad_short = 0.0;
        let mut bad_long = 0.0;
        for &(t, dt, is_bad) in &st.window {
            if !is_bad {
                continue;
            }
            // Clip the first partially-covered interval at each cutoff.
            if t > cut_short {
                bad_short += dt.min(t - cut_short);
            }
            if t > cut_long {
                bad_long += dt.min(t - cut_long);
            }
        }
        (
            bad_short / self.cfg.short_window_s,
            bad_long / self.cfg.long_window_s,
        )
    }

    /// Feed one observation per rule (aligned with [`Self::rules`]) at sim
    /// time `t_s`; returns the transitions this observation caused. Also
    /// appends them to the engine's cumulative log.
    pub fn observe(&mut self, t_s: f64, values: &[f64]) -> Vec<AlertEvent> {
        assert_eq!(
            values.len(),
            self.rules.len(),
            "one value per rule, in rule order"
        );
        let mut out = Vec::new();
        for (idx, (&value, rule)) in values.iter().zip(&self.rules).enumerate() {
            let st = &mut self.states[idx];
            let dt = st.prev_t.map_or(0.0, |p| t_s - p);
            st.prev_t = Some(t_s);
            let bad = t_s >= self.cfg.warmup_s && value > rule.threshold;
            st.window.push_back((t_s, dt, bad));
            st.bad_entries += usize::from(bad);
            let horizon = t_s - self.cfg.long_window_s;
            while st.window.front().is_some_and(|&(t, _, _)| t <= horizon) {
                if let Some((_, _, was_bad)) = st.window.pop_front() {
                    st.bad_entries -= usize::from(was_bad);
                }
            }
            let (frac_short, frac_long) = self.bad_fracs(idx, t_s);
            let burn_short = frac_short / self.cfg.budget;
            let burn_long = frac_long / self.cfg.budget;
            let hot_short = burn_short >= self.cfg.burn_factor;
            let hot_long = burn_long >= self.cfg.burn_factor;
            let st = &mut self.states[idx];
            let transition = match st.state {
                AlertState::Ok if hot_short && hot_long => Some(("firing", AlertState::Firing)),
                AlertState::Ok if hot_short => Some(("pending", AlertState::Pending)),
                AlertState::Pending if hot_short && hot_long => {
                    Some(("firing", AlertState::Firing))
                }
                AlertState::Pending if burn_short < self.cfg.resolve_factor => {
                    Some(("cleared", AlertState::Ok))
                }
                AlertState::Firing if burn_short < self.cfg.resolve_factor => {
                    Some(("resolved", AlertState::Ok))
                }
                _ => None,
            };
            if let Some((name, next)) = transition {
                st.state = next;
                out.push(AlertEvent {
                    t_s,
                    rule: rule.id.clone(),
                    transition: name,
                    value,
                    burn_short,
                    burn_long,
                });
            }
        }
        self.log.extend(out.iter().cloned());
        out
    }
}

/// Per-user starvation clock: turns the share-below-line condition into an
/// *age* signal the burn-rate engine can threshold. Deterministic — pure
/// sim-time bookkeeping.
#[derive(Debug, Default)]
pub struct StarvationClock {
    below_since: BTreeMap<String, f64>,
}

impl StarvationClock {
    /// Observe `user`'s achieved share vs their target at `now_s`; returns
    /// the accrued starvation age (0 while at or above
    /// `frac · target`, or when the target is zero).
    pub fn age(&mut self, user: &str, achieved: f64, target: f64, frac: f64, now_s: f64) -> f64 {
        if target <= 0.0 || achieved >= frac * target {
            self.below_since.remove(user);
            return 0.0;
        }
        match self.below_since.get(user) {
            Some(&since) => now_s - since,
            None => {
                // Allocate the key only on the healthy→starving edge, not
                // every sample.
                self.below_since.insert(user.to_string(), now_s);
                0.0
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SloConfig {
        SloConfig {
            staleness_threshold_s: 150.0,
            warmup_s: 0.0,
            ..SloConfig::default()
        }
    }

    fn engine(threshold: f64) -> SloEngine {
        SloEngine::new(
            cfg(),
            vec![SloRule {
                id: "staleness:1->0".to_string(),
                threshold,
            }],
        )
    }

    /// The calibrated chaos timeline: 60 s samples, the signal breaches
    /// from t=480 through t=600 (a 300–600 s outage plus ack drain), then
    /// recovers. Pending at the first hot short window, firing once the
    /// long window burns too, resolved once the short window is clean.
    #[test]
    fn outage_timeline_fires_and_resolves() {
        let mut e = engine(150.0);
        let mut events = Vec::new();
        for i in 1..=30 {
            let t = i as f64 * 60.0;
            let v = if (480.0..=600.0).contains(&t) {
                200.0
            } else {
                10.0
            };
            events.extend(e.observe(t, &[v]));
        }
        let seq: Vec<(f64, &str)> = events.iter().map(|a| (a.t_s, a.transition)).collect();
        assert_eq!(
            seq,
            vec![(480.0, "pending"), (540.0, "firing"), (900.0, "resolved")]
        );
        assert_eq!(e.states[0].state, AlertState::Ok);
        assert_eq!(e.into_events(), events);
        // Burn rates at the firing edge: 2/5 of the short window and 1/10
        // of the long window were bad, against a 5% budget.
        let firing = &events[1];
        assert!((firing.burn_short - 8.0).abs() < 1e-9);
        assert!((firing.burn_long - 2.0).abs() < 1e-9);
    }

    /// A single bad sample heats the short window but never the long one:
    /// pending, then cleared — no firing.
    #[test]
    fn short_blip_clears_without_firing() {
        let mut e = engine(150.0);
        let mut events = Vec::new();
        for i in 1..=20 {
            let t = i as f64 * 60.0;
            let v = if t == 300.0 { 200.0 } else { 10.0 };
            events.extend(e.observe(t, &[v]));
        }
        let seq: Vec<&str> = events.iter().map(|a| a.transition).collect();
        assert_eq!(seq, vec!["pending", "cleared"]);
        assert_eq!(e.states[0].state, AlertState::Ok);
    }

    /// Observations before warmup are recorded as good even when the value
    /// breaches — the empty-grid transient must not alert.
    #[test]
    fn warmup_grace_swallows_early_breaches() {
        let mut e = SloEngine::new(
            SloConfig {
                warmup_s: 300.0,
                ..cfg()
            },
            vec![SloRule {
                id: "fairness:U65".to_string(),
                threshold: 0.5,
            }],
        );
        for i in 1..=4 {
            // 1.0 > 0.5 at t=60..240, all inside warmup.
            assert!(e.observe(i as f64 * 60.0, &[1.0]).is_empty());
        }
        // Past warmup with a good value: still quiet.
        assert!(e.observe(300.0, &[0.1]).is_empty());
        assert!(e.into_events().is_empty());
    }

    /// The denominator is the full window even when the run is younger:
    /// one bad sample at t=60 burns 60/300 of the short window, not 100%.
    #[test]
    fn young_run_uses_full_window_denominator() {
        let mut e = engine(150.0);
        e.observe(60.0, &[200.0]);
        let evs = e.observe(120.0, &[200.0]);
        // 60 s of bad time over the 300 s short window = 0.2 → burn 4.0;
        // long window 60/1200 → burn 1.0 < 2.0: pending only.
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].transition, "pending");
        assert!((evs[0].burn_short - 4.0).abs() < 1e-9);
    }

    #[test]
    fn starvation_clock_accrues_and_resets() {
        let mut c = StarvationClock::default();
        assert_eq!(c.age("u", 0.5, 0.4, 0.25, 0.0), 0.0);
        assert_eq!(c.age("u", 0.01, 0.4, 0.25, 100.0), 0.0);
        assert_eq!(c.age("u", 0.01, 0.4, 0.25, 400.0), 300.0);
        assert_eq!(c.age("u", 0.2, 0.4, 0.25, 500.0), 0.0, "recovered");
        assert_eq!(c.age("u", 0.01, 0.4, 0.25, 600.0), 0.0, "episode restarts");
        assert_eq!(c.age("u", 0.01, 0.4, 0.25, 700.0), 100.0);
        assert_eq!(c.age("z", 0.0, 0.0, 0.25, 900.0), 0.0, "zero target");
        assert_eq!(c.age("z", 0.0, 0.0, 0.25, 1e9), 0.0, "…never starves");
    }

    /// The clock's age against a `starvation:` rule: a user under the line
    /// is a good sample until the age passes the threshold (the window),
    /// a recovery inside the window restarts it, and only a full window
    /// below the line turns samples bad and the rule pending.
    #[test]
    fn starvation_rule_goes_bad_only_past_its_age_threshold() {
        let mut clock = StarvationClock::default();
        let mut e = SloEngine::new(
            cfg(),
            vec![SloRule {
                id: "starvation:u".to_string(),
                threshold: 100.0,
            }],
        );
        // Target 0.4, line at 0.5 · 0.4 = 0.2.
        let mut step = |achieved: f64, t: f64| {
            let age = clock.age("u", achieved, 0.4, 0.5, t);
            (age, e.observe(t, &[age]))
        };
        assert!(step(0.1, 0.0).1.is_empty());
        assert!(step(0.1, 60.0).1.is_empty());
        assert!(step(0.3, 90.0).1.is_empty(), "recovered inside the window");
        assert_eq!(
            step(0.1, 120.0).0,
            0.0,
            "clock restarted at the second drop"
        );
        assert!(step(0.1, 180.0).1.is_empty());
        let (age, events) = step(0.1, 240.0);
        assert_eq!(age, 120.0);
        assert_eq!(events.len(), 1, "a full window below the line");
        assert_eq!(
            (events[0].rule.as_str(), events[0].transition),
            ("starvation:u", "pending")
        );
    }

    #[test]
    fn jsonl_rendering_is_canonical() {
        let ev = AlertEvent {
            t_s: 540.0,
            rule: "staleness:1->0".to_string(),
            transition: "firing",
            value: 212.5,
            burn_short: 8.0,
            burn_long: 2.0,
        };
        assert_eq!(
            ev.to_json(),
            "{\"t_s\":540.0,\"rule\":\"staleness:1->0\",\"transition\":\"firing\",\
             \"value\":212.5,\"burn_short\":8.0,\"burn_long\":2.0}"
        );
        let two = alerts_to_jsonl(&[ev.clone(), ev]);
        assert_eq!(two.lines().count(), 2);
        // Hostile rule ids are escaped, not embedded raw.
        let hostile = AlertEvent {
            t_s: 0.0,
            rule: "fairness:evil\"user\\one\n".to_string(),
            transition: "pending",
            value: 1.0,
            burn_short: 2.0,
            burn_long: 0.0,
        };
        assert!(hostile.to_json().contains("evil\\\"user\\\\one\\n"));
    }
}
