//! Simulated-time reports.

/// One named phase's simulated duration.
#[derive(Debug, Clone)]
pub struct PhaseTime {
    /// Phase name (matches the profile phase that produced it).
    pub name: String,
    /// Simulated seconds.
    pub seconds: f64,
    /// The locale whose contribution dominated this phase (the
    /// bulk-synchronous critical locale), when the producer attributed
    /// one. Informational: not part of equality.
    pub max_locale: Option<usize>,
    /// Seconds of the largest single attributed contribution — decides
    /// which locale keeps `max_locale` when a phase accumulates.
    max_contrib: f64,
}

impl PartialEq for PhaseTime {
    /// Attribution is advisory metadata; two reports that price
    /// identically are equal regardless of who was slowest.
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.seconds == other.seconds
    }
}

/// A phase-structured simulated-time report — what the figure harness
/// prints as the stacked components of Figs 7–9.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimReport {
    phases: Vec<PhaseTime>,
}

impl SimReport {
    /// Append (or accumulate into) a phase.
    pub fn push(&mut self, name: &str, seconds: f64) {
        self.push_attributed(name, seconds, None);
    }

    /// Append (or accumulate into) a phase, attributing the contribution
    /// to the locale that dominated it. When a phase accumulates several
    /// contributions, the locale of the largest one wins (ties keep the
    /// earlier attribution, so assembly stays deterministic).
    pub fn push_attributed(&mut self, name: &str, seconds: f64, locale: Option<usize>) {
        match self.phases.iter_mut().find(|p| p.name == name) {
            Some(p) => {
                p.seconds += seconds;
                if locale.is_some() && seconds > p.max_contrib {
                    p.max_contrib = seconds;
                    p.max_locale = locale;
                }
            }
            None => self.phases.push(PhaseTime {
                name: name.to_string(),
                seconds,
                max_locale: locale,
                max_contrib: if locale.is_some() { seconds } else { 0.0 },
            }),
        }
    }

    /// Record an attribution for an existing phase without adding time:
    /// `locale` dominated with `contrib` seconds. Used when a producer
    /// prices time through one path (e.g. a merged sub-report) but knows
    /// the per-locale breakdown separately; larger contributions win as
    /// with [`SimReport::push_attributed`].
    pub fn attribute(&mut self, name: &str, locale: usize, contrib: f64) {
        if let Some(p) = self.phases.iter_mut().find(|p| p.name == name) {
            if contrib > p.max_contrib {
                p.max_contrib = contrib;
                p.max_locale = Some(locale);
            }
        }
    }

    /// The slowest locale attributed to `name`, if the producer recorded
    /// one (distributed ops do; shared-memory pricing does not).
    pub fn max_locale(&self, name: &str) -> Option<usize> {
        self.phases.iter().find(|p| p.name == name).and_then(|p| p.max_locale)
    }

    /// Every `(phase, slowest locale)` attribution, in phase order.
    pub fn attributions(&self) -> Vec<(&str, usize)> {
        self.phases.iter().filter_map(|p| p.max_locale.map(|l| (p.name.as_str(), l))).collect()
    }

    /// Total simulated time across phases; `+0.0` when there are none
    /// (f64's `Sum` starts from `-0.0`).
    pub fn total(&self) -> f64 {
        self.phases.iter().fold(0.0, |total, p| total + p.seconds)
    }

    /// Seconds recorded for `name` (0 when absent).
    pub fn phase(&self, name: &str) -> f64 {
        self.phases.iter().find(|p| p.name == name).map(|p| p.seconds).unwrap_or(0.0)
    }

    /// Phase names in insertion order.
    pub fn phase_names(&self) -> Vec<&str> {
        self.phases.iter().map(|p| p.name.as_str()).collect()
    }

    /// Iterate phases.
    pub fn iter(&self) -> impl Iterator<Item = &PhaseTime> {
        self.phases.iter()
    }

    /// Merge another report phase-by-phase (attributions ride along; the
    /// larger contribution keeps its locale).
    pub fn merge(&mut self, other: &SimReport) {
        for p in other.iter() {
            match self.phases.iter_mut().find(|q| q.name == p.name) {
                Some(q) => {
                    q.seconds += p.seconds;
                    if p.max_contrib > q.max_contrib {
                        q.max_contrib = p.max_contrib;
                        q.max_locale = p.max_locale;
                    }
                }
                None => self.phases.push(p.clone()),
            }
        }
    }
}

impl std::fmt::Display for SimReport {
    /// Writes `name=1.234s name2=... total=...` — the compact one-line
    /// form used in harness logs.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for p in &self.phases {
            write!(f, "{}={:.6}s ", p.name, p.seconds)?;
        }
        write!(f, "total={:.6}s", self.total())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_report_totals_positive_zero() {
        let empty = SimReport::default();
        assert!(empty.total().is_sign_positive());
        assert_eq!(format!("{:.3}", empty.total()), "0.000");
        assert_eq!(empty.to_string(), "total=0.000000s");
    }

    #[test]
    fn push_accumulates_same_phase() {
        let mut r = SimReport::default();
        r.push("gather", 1.0);
        r.push("local", 2.0);
        r.push("gather", 0.5);
        assert_eq!(r.phase("gather"), 1.5);
        assert!((r.total() - 3.5).abs() < 1e-12);
        assert_eq!(r.phase_names(), vec!["gather", "local"]);
    }

    #[test]
    fn attribution_tracks_the_largest_contribution() {
        let mut r = SimReport::default();
        r.push_attributed("gather", 1.0, Some(3));
        assert_eq!(r.max_locale("gather"), Some(3));
        // a smaller later contribution does not steal the attribution
        r.push_attributed("gather", 0.5, Some(0));
        assert_eq!(r.max_locale("gather"), Some(3));
        // a larger one does
        r.push_attributed("gather", 2.0, Some(1));
        assert_eq!(r.max_locale("gather"), Some(1));
        assert!((r.phase("gather") - 3.5).abs() < 1e-12);
        // unattributed pushes never clear an attribution
        r.push("gather", 10.0);
        assert_eq!(r.max_locale("gather"), Some(1));
        assert_eq!(r.attributions(), vec![("gather", 1)]);
    }

    #[test]
    fn attribution_is_not_part_of_equality() {
        let mut a = SimReport::default();
        a.push_attributed("p", 1.0, Some(2));
        let mut b = SimReport::default();
        b.push("p", 1.0);
        assert_eq!(a, b, "attribution is advisory metadata");
    }

    #[test]
    fn merge_carries_attribution() {
        let mut a = SimReport::default();
        a.push_attributed("p", 1.0, Some(0));
        let mut b = SimReport::default();
        b.push_attributed("p", 4.0, Some(5));
        b.push_attributed("q", 1.0, Some(2));
        a.merge(&b);
        assert_eq!(a.max_locale("p"), Some(5));
        assert_eq!(a.max_locale("q"), Some(2));
        assert!((a.phase("p") - 5.0).abs() < 1e-12);
    }

    #[test]
    fn display_is_compact() {
        let mut r = SimReport::default();
        r.push("a", 0.001);
        let s = format!("{r}");
        assert!(s.contains("a=0.001000s"));
        assert!(s.contains("total="));
    }
}
