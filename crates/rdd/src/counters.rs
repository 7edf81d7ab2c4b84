//! Named task counters: the engine's one path for application telemetry.
//!
//! The application defines a counter once, as a `const`
//! [`TaskCounter`], and a task body reports it through
//! [`crate::TaskCtx::count`]. The engine carries the resulting
//! name → value list ([`TaskCounters`]) on
//! [`crate::TaskMetrics`] without knowing what any name means, and every
//! consumer — stage summaries, the live registry, the trace analyzer —
//! loops over the list. Adding a counter is therefore a one-site change.

use std::borrow::Cow;

use serde_json::Value;

use crate::metrics::valid_metric_name;

/// A counter a task body can report. Define it once, as a `const`:
///
/// ```
/// use sparkscore_rdd::TaskCounter;
/// const ROWS_SCANNED: TaskCounter = TaskCounter::new("rows_scanned");
/// assert_eq!(ROWS_SCANNED.name(), "rows_scanned");
/// ```
///
/// The name becomes the JSON key in `TaskEnd.metrics.counters` and the
/// middle of the Prometheus series `sparkscore_<name>_total`, so it must
/// match the metric-name grammar; `new` checks that at compile time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskCounter {
    name: &'static str,
}

impl TaskCounter {
    /// Panics — at compile time, for a `const` — on a name outside
    /// `[a-zA-Z_:][a-zA-Z0-9_:]*`.
    pub const fn new(name: &'static str) -> Self {
        assert!(
            valid_metric_name(name),
            "task counter name must match [a-zA-Z_:][a-zA-Z0-9_:]*"
        );
        TaskCounter { name }
    }

    pub const fn name(&self) -> &'static str {
        self.name
    }
}

/// Counter values by name, sorted by name. Empty (and allocation-free)
/// for a task that reported nothing.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TaskCounters(Vec<(Cow<'static, str>, u64)>);

impl TaskCounters {
    fn find(&self, name: &str) -> Result<usize, usize> {
        self.0.binary_search_by(|(have, _)| have.as_ref().cmp(name))
    }

    /// Add `n` to `name`, inserting it on first sight. Panics on a name
    /// outside the metric-name grammar.
    pub(crate) fn add<N>(&mut self, name: N, n: u64)
    where
        N: AsRef<str> + Into<Cow<'static, str>>,
    {
        match self.find(name.as_ref()) {
            // Saturating: a hostile log (`u64::MAX` twice) must not panic.
            Ok(i) => self.0[i].1 = self.0[i].1.saturating_add(n),
            Err(i) => {
                assert!(
                    valid_metric_name(name.as_ref()),
                    "invalid task counter name {:?}",
                    name.as_ref()
                );
                self.0.insert(i, (name.into(), n));
            }
        }
    }

    /// Add every counter of `other` into `self`.
    pub fn merge(&mut self, other: &TaskCounters) {
        for (name, n) in &other.0 {
            self.add(name.clone(), *n);
        }
    }

    /// The value under `name`; 0 if it was never reported.
    pub fn get(&self, name: &str) -> u64 {
        self.find(name).map_or(0, |i| self.0[i].1)
    }

    /// `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.0.iter().map(|(name, n)| (name.as_ref(), *n))
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The wire form: one `{"name": value, …}` object in name order.
    pub fn to_json(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(name, n)| (name.to_string(), Value::from(n)))
                .collect(),
        )
    }
}

impl<N: AsRef<str> + Into<Cow<'static, str>>> FromIterator<(N, u64)> for TaskCounters {
    fn from_iter<I: IntoIterator<Item = (N, u64)>>(pairs: I) -> Self {
        let mut counters = TaskCounters::default();
        for (name, n) in pairs {
            counters.add(name, n);
        }
        counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adds_accumulate_and_iterate_in_name_order() {
        let mut c = TaskCounters::default();
        assert!(c.is_empty());
        c.add("zeta", 2);
        c.add("alpha", 5);
        c.add("zeta".to_string(), 3);
        assert_eq!(c.get("zeta"), 5);
        assert_eq!(c.get("alpha"), 5);
        assert_eq!(c.get("never_reported"), 0);
        assert_eq!(c.iter().collect::<Vec<_>>(), [("alpha", 5), ("zeta", 5)]);
    }

    #[test]
    fn merge_sums_by_name() {
        let mut a: TaskCounters = [("x", 1)].into_iter().collect();
        a.merge(&[("x", 10), ("y", 7)].into_iter().collect());
        assert_eq!(a.iter().collect::<Vec<_>>(), [("x", 11), ("y", 7)]);
    }

    #[test]
    fn borrowed_and_owned_names_compare_equal() {
        let borrowed: TaskCounters = [("n", 1)].into_iter().collect();
        let owned: TaskCounters = [(String::from("n"), 1)].into_iter().collect();
        assert_eq!(borrowed, owned);
        assert_eq!(owned.to_json().to_string(), r#"{"n":1}"#);
    }

    #[test]
    #[should_panic(expected = "invalid task counter name")]
    fn bad_name_is_rejected_on_insert() {
        TaskCounters::default().add("has space", 1);
    }
}
