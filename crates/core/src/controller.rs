//! Prefetching controller (§4.4.1): on a detected phase transition it
//! activates all N phase-specific predictors in parallel, monitors their
//! delta-prediction hit rates over a short probe window, and switches to
//! the best performing one.

use crate::error::MpGraphError;

/// Probe bookkeeping for one phase model.
#[derive(Debug, Clone, Default)]
struct PhaseScore {
    hits: usize,
    /// Blocks the model predicted on the previous access (checked against
    /// the next demanded block).
    last_preds: Vec<u64>,
}

/// The phase-selection controller.
#[derive(Debug, Clone)]
pub struct Controller {
    num_phases: usize,
    current: usize,
    probe_window: usize,
    remaining: usize,
    scores: Vec<PhaseScore>,
    /// Total transitions acted on (introspection).
    pub transitions_handled: usize,
    /// Probe observations scored (introspection, for metrics snapshots).
    pub observations: u64,
}

impl Controller {
    pub fn new(num_phases: usize, probe_window: usize) -> Self {
        Controller {
            num_phases: num_phases.max(1),
            current: 0,
            probe_window: probe_window.max(1),
            remaining: 0,
            scores: vec![PhaseScore::default(); num_phases.max(1)],
            transitions_handled: 0,
            observations: 0,
        }
    }

    /// Like [`Controller::new`] but rejects degenerate parameters instead
    /// of silently clamping them.
    pub fn try_new(num_phases: usize, probe_window: usize) -> Result<Self, MpGraphError> {
        if num_phases == 0 {
            return Err(MpGraphError::config("controller", "num_phases must be > 0"));
        }
        if probe_window == 0 {
            return Err(MpGraphError::config(
                "controller",
                "probe_window must be > 0",
            ));
        }
        Ok(Controller::new(num_phases, probe_window))
    }

    /// Currently selected phase model.
    pub fn current_phase(&self) -> usize {
        self.current
    }

    /// Whether the controller is inside a probe window (all models active).
    pub fn probing(&self) -> bool {
        self.remaining > 0
    }

    /// Observations still due in the current probe window (0 outside one).
    /// Each well-shaped [`Self::observe`] call inside a window consumes
    /// one, whatever the predictions were, so a caller can tell ahead
    /// which upcoming accesses will probe.
    pub fn probes_remaining(&self) -> usize {
        self.remaining
    }

    /// Observations in a full probe window.
    pub fn probe_window(&self) -> usize {
        self.probe_window
    }

    /// Signal from the transition detector.
    pub fn on_transition(&mut self) {
        self.transitions_handled += 1;
        self.remaining = self.probe_window;
        for s in self.scores.iter_mut() {
            s.hits = 0;
            s.last_preds.clear();
        }
    }

    /// During a probe, feeds the demanded block plus each phase model's
    /// fresh predictions; outside a probe this is a no-op. Returns the
    /// selected phase when the probe window completes.
    ///
    /// A prediction set whose length disagrees with the number of phase
    /// models is a recoverable error: the probe state is left untouched so
    /// the caller can drop the malformed batch and continue.
    pub fn observe(
        &mut self,
        demanded_block: u64,
        per_phase_preds: &[Vec<u64>],
    ) -> Result<Option<usize>, MpGraphError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        if per_phase_preds.len() != self.num_phases {
            return Err(MpGraphError::shape(
                "controller",
                self.num_phases,
                per_phase_preds.len(),
            ));
        }
        for (s, preds) in self.scores.iter_mut().zip(per_phase_preds.iter()) {
            if s.last_preds.contains(&demanded_block) {
                s.hits += 1;
            }
            s.last_preds = preds.clone();
        }
        self.observations += 1;
        self.remaining -= 1;
        if self.remaining == 0 {
            let best = self
                .scores
                .iter()
                .enumerate()
                .max_by_key(|(_, s)| s.hits)
                .map(|(i, _)| i)
                .unwrap_or(0);
            self.current = best;
            Ok(Some(best))
        } else {
            Ok(None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selects_the_phase_whose_predictions_hit() {
        let mut c = Controller::new(2, 4);
        assert_eq!(c.current_phase(), 0);
        c.on_transition();
        assert!(c.probing());
        // Phase-1 model always predicts the block that arrives next
        // (blocks 100, 101, 102, ...); phase-0 predicts junk.
        let mut selected = None;
        for i in 0..4u64 {
            let preds = vec![vec![5_000 + i], vec![100 + i + 1]];
            selected = c.observe(100 + i, &preds).expect("shapes match");
        }
        assert_eq!(selected, Some(1));
        assert_eq!(c.current_phase(), 1);
        assert!(!c.probing());
        assert_eq!(c.transitions_handled, 1);
    }

    #[test]
    fn observe_outside_probe_is_noop() {
        let mut c = Controller::new(2, 4);
        assert_eq!(c.observe(1, &[vec![], vec![]]), Ok(None));
        assert_eq!(c.current_phase(), 0);
    }

    #[test]
    fn mismatched_predictions_are_a_recoverable_error() {
        let mut c = Controller::new(2, 2);
        c.on_transition();
        // Wrong number of phase models: recoverable, probe state untouched.
        let err = c.observe(1, &[vec![2]]).expect_err("shape mismatch");
        assert_eq!(
            err,
            MpGraphError::Shape {
                component: "controller",
                expected: 2,
                actual: 1
            }
        );
        assert!(c.probing(), "probe must survive a malformed batch");
        // Correctly-shaped batches still complete the probe afterwards.
        let _ = c.observe(2, &[vec![3], vec![]]).expect("ok");
        let sel = c.observe(3, &[vec![4], vec![]]).expect("ok");
        assert_eq!(sel, Some(0));
    }

    #[test]
    fn try_new_validates() {
        assert!(Controller::try_new(0, 4).is_err());
        assert!(Controller::try_new(2, 0).is_err());
        assert!(Controller::try_new(2, 4).is_ok());
    }

    #[test]
    fn retransition_restarts_probe() {
        let mut c = Controller::new(2, 2);
        c.on_transition();
        let _ = c.observe(1, &[vec![2], vec![]]);
        c.on_transition(); // restart mid-probe
        assert!(c.probing());
        let _ = c.observe(2, &[vec![3], vec![]]);
        let sel = c.observe(3, &[vec![4], vec![]]).expect("ok");
        // Phase 0 predicted 3 before 3 arrived → it wins.
        assert_eq!(sel, Some(0));
        assert_eq!(c.transitions_handled, 2);
    }

    #[test]
    fn single_phase_is_trivial() {
        let mut c = Controller::new(1, 2);
        c.on_transition();
        let _ = c.observe(1, &[vec![]]);
        let sel = c.observe(2, &[vec![]]).expect("ok");
        assert_eq!(sel, Some(0));
    }
}
