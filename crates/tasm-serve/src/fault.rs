//! Server-side fault-injection hooks, compiled in only under the
//! `fault-inject` feature.
//!
//! The daemon's recovery paths — panic isolation, deadline abort on a
//! stalled evaluation — are unreachable from well-formed inputs, so the
//! test suite needs a lever to pull. Under `fault-inject`, two magic
//! query root labels become triggers once the request holds its
//! evaluation slot (i.e. *inside* the evaluation path the recovery
//! machinery guards):
//!
//! * `__fault_panic__` — panics the evaluation, exercising
//!   `catch_unwind`, workspace disposal, slot release, and the
//!   `ERR internal` response.
//! * `__fault_sleep_<ms>__` — stalls the evaluation for `<ms>`
//!   milliseconds before the scan starts, holding its slot, exercising
//!   deadline expiry (`ERR timeout`), requests waiting for a slot, and
//!   drain-deadline overruns.
//!
//! Without the feature the hook compiles to nothing, so release builds
//! carry no magic labels.

/// Trips a configured fault for the given query root label, if any.
#[cfg(feature = "fault-inject")]
pub(crate) fn maybe_inject(root_label: &str) {
    if root_label == "__fault_panic__" {
        panic!("fault-inject: deliberate evaluation panic requested by query");
    }
    if let Some(ms) = root_label
        .strip_prefix("__fault_sleep_")
        .and_then(|rest| rest.strip_suffix("__"))
        .and_then(|ms| ms.parse::<u64>().ok())
    {
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }
}

/// No-op without the `fault-inject` feature.
#[cfg(not(feature = "fault-inject"))]
pub(crate) fn maybe_inject(_root_label: &str) {}

#[cfg(all(test, feature = "fault-inject"))]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn sleep_label_stalls_for_the_requested_time() {
        let start = Instant::now();
        maybe_inject("__fault_sleep_30__");
        assert!(start.elapsed() >= Duration::from_millis(30));
    }

    #[test]
    fn panic_label_panics() {
        let r = std::panic::catch_unwind(|| maybe_inject("__fault_panic__"));
        assert!(r.is_err());
    }

    #[test]
    fn ordinary_labels_do_nothing() {
        let start = Instant::now();
        maybe_inject("article");
        maybe_inject("__fault_sleep_nonsense__");
        assert!(start.elapsed() < Duration::from_millis(20));
    }
}
