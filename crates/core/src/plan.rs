//! Sampling plans.
//!
//! A sampling plan decides *how many runtime observations* a training example
//! receives. The paper compares three (§4.3):
//!
//! * **fixed, 35 observations** — the baseline of Balaprakash et al.: every
//!   selected configuration is profiled 35 times and the mean is fed to the
//!   model; visited configurations never return to the candidate set;
//! * **fixed, 1 observation** — the cheap-but-noisy extreme;
//! * **sequential (variable)** — the paper's contribution: one observation
//!   per visit, with visited configurations staying in the candidate set
//!   until they have accumulated `max_observations` runs, so the learner can
//!   revisit exactly the configurations whose measurements look noisy.

/// How many observations each selected training example receives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SamplingPlan {
    /// A fixed number of observations per example; examples are never
    /// revisited.
    Fixed {
        /// Observations taken for every selected example.
        observations: usize,
    },
    /// The paper's sequential-analysis plan: one observation per visit,
    /// revisits allowed up to a cap.
    Sequential {
        /// Maximum number of observations a single example may accumulate.
        max_observations: usize,
    },
}

impl SamplingPlan {
    /// The paper's baseline plan (35 observations, as in Balaprakash et al.).
    pub fn fixed35() -> Self {
        SamplingPlan::Fixed { observations: 35 }
    }

    /// The single-observation plan ("one observation" in Figure 6).
    pub fn one_observation() -> Self {
        SamplingPlan::Fixed { observations: 1 }
    }

    /// A fixed plan with `observations` runs per example.
    ///
    /// # Panics
    ///
    /// Panics if `observations` is zero.
    pub fn fixed(observations: usize) -> Self {
        assert!(
            observations > 0,
            "a sampling plan needs at least one observation"
        );
        SamplingPlan::Fixed { observations }
    }

    /// The paper's variable plan, capped at `max_observations` runs per
    /// example (the paper caps at 35 to match the baseline).
    ///
    /// # Panics
    ///
    /// Panics if `max_observations` is zero.
    pub fn sequential(max_observations: usize) -> Self {
        assert!(
            max_observations > 0,
            "a sampling plan needs at least one observation"
        );
        SamplingPlan::Sequential { max_observations }
    }

    /// Number of observations taken in one visit of a selected example.
    pub fn observations_per_visit(&self) -> usize {
        match self {
            SamplingPlan::Fixed { observations } => *observations,
            SamplingPlan::Sequential { .. } => 1,
        }
    }

    /// Whether visited examples remain candidates for future visits.
    pub fn allows_revisits(&self) -> bool {
        matches!(self, SamplingPlan::Sequential { .. })
    }

    /// Cap on the number of observations a single example may accumulate.
    pub fn max_observations(&self) -> usize {
        match self {
            SamplingPlan::Fixed { observations } => *observations,
            SamplingPlan::Sequential { max_observations } => *max_observations,
        }
    }

    /// Human-readable label matching the paper's figure legends.
    pub fn label(&self) -> String {
        match self {
            SamplingPlan::Fixed { observations: 1 } => "one observation".to_string(),
            SamplingPlan::Fixed { observations } => format!("{observations} observations"),
            SamplingPlan::Sequential { .. } => "variable observations".to_string(),
        }
    }
}

impl Default for SamplingPlan {
    fn default() -> Self {
        SamplingPlan::sequential(35)
    }
}

impl std::fmt::Display for SamplingPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_plans_have_expected_properties() {
        let baseline = SamplingPlan::fixed35();
        assert_eq!(baseline.observations_per_visit(), 35);
        assert!(!baseline.allows_revisits());
        assert_eq!(baseline.max_observations(), 35);

        let one = SamplingPlan::one_observation();
        assert_eq!(one.observations_per_visit(), 1);
        assert_eq!(one.label(), "one observation");

        let ours = SamplingPlan::sequential(35);
        assert_eq!(ours.observations_per_visit(), 1);
        assert!(ours.allows_revisits());
        assert_eq!(ours.max_observations(), 35);
        assert_eq!(ours.label(), "variable observations");
    }

    #[test]
    fn labels_match_figure_legends() {
        assert_eq!(SamplingPlan::fixed35().label(), "35 observations");
        assert_eq!(
            format!("{}", SamplingPlan::sequential(10)),
            "variable observations"
        );
    }

    #[test]
    fn default_plan_is_the_papers() {
        assert_eq!(SamplingPlan::default(), SamplingPlan::sequential(35));
    }

    #[test]
    #[should_panic(expected = "at least one observation")]
    fn zero_observation_plan_is_rejected() {
        SamplingPlan::fixed(0);
    }

    #[test]
    #[should_panic(expected = "at least one observation")]
    fn zero_cap_sequential_plan_is_rejected() {
        SamplingPlan::sequential(0);
    }
}
