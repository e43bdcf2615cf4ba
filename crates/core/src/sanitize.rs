//! The simulation sanitizer: cheap runtime invariant checks, off by
//! default.
//!
//! The static analyzer ([`crate::analysis`]) proves properties of a
//! *topology*; the sanitizer checks the properties that only hold (or
//! break) *dynamically* — per packet, per event — while a simulation runs:
//!
//! * **Monotonic refinement**: across pipeline stages, a composed
//!   prediction may only be refined, never degraded — once a stage
//!   resolves a slot's direction or target, later stages must carry a
//!   prediction for that slot too (checked in the pipeline's stage fold);
//! * **Metadata consistency**: every event broadcast (fire, mispredict,
//!   repair, update) must carry exactly one metadata word per component
//!   (checked in the event broadcast paths);
//! * **Protocol legality**: a fetch packet must not be accepted twice
//!   (checked in the unit's accept path).
//!
//! Enablement comes from [`Config::sanitize`](crate::config::Config::sanitize)
//! (the `COBRA_SANITIZE` knob or the `sanitize` cargo feature) and is
//! cached in each pipeline when it is built — with the sanitizer off,
//! each hook site costs one test of a `bool` field, keeping the hot path
//! intact.
//!
//! A violation panics with a `cobra-sanitizer:` prefix, so a failure in a
//! long simulation is unambiguous about which layer detected it.

/// Reports a sanitizer violation.
///
/// # Panics
///
/// Always — that is the point. The message carries the `cobra-sanitizer:`
/// prefix so the failing layer is unambiguous.
#[cold]
#[track_caller]
pub fn violation(msg: &str) -> ! {
    panic!("cobra-sanitizer: {msg}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "cobra-sanitizer: boom")]
    fn violation_panics_with_prefix() {
        violation("boom");
    }
}
