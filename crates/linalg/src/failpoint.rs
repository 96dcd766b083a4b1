//! Deterministic fault injection for robustness testing.
//!
//! Compiled only with the `failpoints` cargo feature; production builds
//! carry none of this code. A failpoint is a named site in a fallible
//! routine (e.g. `"cholesky.singular"`, `"diskcsr.read"`,
//! `"lsqr.breakdown"`, `"refine.stagnate"` — force iterative refinement to
//! report immediate stagnation — `"cond.inflate"` — inflate the Hager
//! condition estimate so certification fails — and `"ridge.weights"` —
//! poison a direct solve's back-projected weights with a NaN) that a test
//! can *arm* to
//! fail a fixed number of times, letting recovery paths be driven without
//! contriving numerically pathological inputs.
//!
//! State is thread-local, so concurrently running tests cannot trip each
//! other's failpoints. The usual pattern:
//!
//! ```
//! use srda_linalg::failpoint;
//!
//! failpoint::arm("cholesky.singular", 2); // next two factorizations fail
//! // ... exercise the code under test ...
//! failpoint::reset();                     // leave nothing armed behind
//! assert_eq!(failpoint::hits("cholesky.singular"), 0);
//! ```

use std::cell::RefCell;
use std::collections::HashMap;

#[derive(Default, Clone, Copy)]
struct Armed {
    /// Evaluations to let pass (returning `false`) before firing.
    skip: usize,
    /// Forced failures remaining once `skip` is exhausted.
    times: usize,
}

#[derive(Default)]
struct State {
    /// Remaining forced failures per failpoint name.
    armed: HashMap<&'static str, Armed>,
    /// Total times each failpoint actually fired (for test assertions).
    fired: HashMap<&'static str, usize>,
}

thread_local! {
    static STATE: RefCell<State> = RefCell::new(State::default());
}

/// Arm `name` to fail on its next `times` evaluations (cumulative with any
/// previous arming).
pub fn arm(name: &'static str, times: usize) {
    STATE.with(|s| {
        s.borrow_mut()
            .armed
            .entry(name)
            .or_insert_with(Armed::default)
            .times += times;
    });
}

/// Arm `name` to let its next `skip` evaluations pass, then fail `times`
/// times — a deterministic "kill at iteration k" for loops that evaluate
/// the failpoint once per iteration (e.g. `"lsqr.interrupt"`). Replaces
/// any previous arming of `name`.
pub fn arm_after(name: &'static str, skip: usize, times: usize) {
    STATE.with(|s| {
        s.borrow_mut().armed.insert(name, Armed { skip, times });
    });
}

/// Disarm `name`, cancelling any remaining forced failures.
pub fn disarm(name: &'static str) {
    STATE.with(|s| {
        s.borrow_mut().armed.remove(name);
    });
}

/// Disarm every failpoint and clear the fire counters.
pub fn reset() {
    STATE.with(|s| {
        let mut st = s.borrow_mut();
        st.armed.clear();
        st.fired.clear();
    });
}

/// How many times `name` has fired since the last [`reset`].
pub fn fired(name: &'static str) -> usize {
    STATE.with(|s| s.borrow().fired.get(name).copied().unwrap_or(0))
}

/// Remaining forced failures armed for `name` (not counting any skip
/// prefix from [`arm_after`]).
pub fn hits(name: &'static str) -> usize {
    STATE.with(|s| s.borrow().armed.get(name).map(|a| a.times).unwrap_or(0))
}

/// Evaluate the failpoint: returns `true` (and consumes one armed failure)
/// when the calling site must fail now. Instrumented code calls this at the
/// top of the fallible operation.
pub fn should_fail(name: &'static str) -> bool {
    STATE.with(|s| {
        let mut st = s.borrow_mut();
        match st.armed.get_mut(name) {
            Some(a) if a.skip > 0 => {
                a.skip -= 1;
                false
            }
            Some(a) if a.times > 0 => {
                a.times -= 1;
                if a.times == 0 {
                    st.armed.remove(name);
                }
                *st.fired.entry(name).or_insert(0) += 1;
                true
            }
            _ => false,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_exactly_the_armed_count() {
        reset();
        arm("test.point", 2);
        assert!(should_fail("test.point"));
        assert!(should_fail("test.point"));
        assert!(!should_fail("test.point"));
        assert_eq!(fired("test.point"), 2);
        reset();
    }

    #[test]
    fn unarmed_points_never_fire() {
        reset();
        assert!(!should_fail("test.never"));
        assert_eq!(fired("test.never"), 0);
    }

    #[test]
    fn disarm_cancels_pending_failures() {
        reset();
        arm("test.cancel", 5);
        assert!(should_fail("test.cancel"));
        disarm("test.cancel");
        assert!(!should_fail("test.cancel"));
        assert_eq!(fired("test.cancel"), 1);
        reset();
    }

    #[test]
    fn arming_is_cumulative() {
        reset();
        arm("test.cumulative", 1);
        arm("test.cumulative", 1);
        assert_eq!(hits("test.cumulative"), 2);
        reset();
    }

    #[test]
    fn arm_after_skips_then_fires() {
        reset();
        arm_after("test.delayed", 3, 1);
        assert!(!should_fail("test.delayed"));
        assert!(!should_fail("test.delayed"));
        assert!(!should_fail("test.delayed"));
        assert!(should_fail("test.delayed"));
        assert!(!should_fail("test.delayed"));
        assert_eq!(fired("test.delayed"), 1);
        reset();
    }

    #[test]
    fn arm_after_zero_skip_behaves_like_arm() {
        reset();
        arm_after("test.delayed0", 0, 2);
        assert!(should_fail("test.delayed0"));
        assert!(should_fail("test.delayed0"));
        assert!(!should_fail("test.delayed0"));
        reset();
    }
}
