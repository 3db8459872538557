//! Energy bookkeeping for a simulation run.

use std::collections::BTreeMap;

/// An energy ledger with one dynamic and one static bucket per named
/// component, in picojoules.
///
/// The experiment harness fills one account per simulated configuration and
/// the report code turns it into the normalised stacked bars of Figs. 4(b)
/// and 5(b).
///
/// # Example
///
/// ```
/// use lnuca_energy::EnergyAccount;
///
/// let mut account = EnergyAccount::new();
/// account.add_dynamic("L2", 47.2 * 100.0);
/// account.add_static("L3", 1_000_000.0);
/// assert_eq!(account.dynamic_pj("L2"), 4_720.0);
/// assert_eq!(account.static_pj("L3"), 1_000_000.0);
/// assert!(account.total_pj() > 1_000_000.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EnergyAccount {
    dynamic: BTreeMap<String, f64>,
    static_: BTreeMap<String, f64>,
}

impl EnergyAccount {
    /// Creates an empty account.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `pj` picojoules of dynamic energy to `component`.
    pub fn add_dynamic(&mut self, component: &str, pj: f64) {
        *self.dynamic.entry(component.to_owned()).or_insert(0.0) += pj;
    }

    /// Adds `pj` picojoules of static (leakage) energy to `component`.
    pub fn add_static(&mut self, component: &str, pj: f64) {
        *self.static_.entry(component.to_owned()).or_insert(0.0) += pj;
    }

    /// Dynamic energy charged to `component` so far.
    #[must_use]
    pub fn dynamic_pj(&self, component: &str) -> f64 {
        self.dynamic.get(component).copied().unwrap_or(0.0)
    }

    /// Static energy charged to `component` so far.
    #[must_use]
    pub fn static_pj(&self, component: &str) -> f64 {
        self.static_.get(component).copied().unwrap_or(0.0)
    }

    /// Total dynamic energy across all components.
    #[must_use]
    pub fn total_dynamic_pj(&self) -> f64 {
        self.dynamic.values().sum()
    }

    /// Total static energy across all components.
    #[must_use]
    pub fn total_static_pj(&self) -> f64 {
        self.static_.values().sum()
    }

    /// Total energy (dynamic + static).
    #[must_use]
    pub fn total_pj(&self) -> f64 {
        self.total_dynamic_pj() + self.total_static_pj()
    }

    /// All component names that appear in either bucket, sorted.
    #[must_use]
    pub fn components(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .dynamic
            .keys()
            .chain(self.static_.keys())
            .cloned()
            .collect();
        names.sort();
        names.dedup();
        names
    }

    /// Every `(component, picojoules)` entry in the dynamic bucket, in the
    /// map's sorted order. Unlike [`EnergyAccount::components`] this exposes
    /// exactly the entries the account holds — including explicit zeros —
    /// so a serialised account can be reconstructed `PartialEq`-identical
    /// (the study journal depends on this).
    pub fn dynamic_entries(&self) -> impl Iterator<Item = (&str, f64)> {
        self.dynamic.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Every `(component, picojoules)` entry in the static bucket, in the
    /// map's sorted order; see [`EnergyAccount::dynamic_entries`].
    pub fn static_entries(&self) -> impl Iterator<Item = (&str, f64)> {
        self.static_.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// This account's total divided by `baseline`'s total — the normalised
    /// quantity plotted in Figs. 4(b) and 5(b). Returns 1.0 when the baseline
    /// total is zero.
    #[must_use]
    pub fn normalised_to(&self, baseline: &EnergyAccount) -> f64 {
        let b = baseline.total_pj();
        if b == 0.0 {
            1.0
        } else {
            self.total_pj() / b
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulation_and_totals() {
        let mut a = EnergyAccount::new();
        a.add_dynamic("tiles", 10.0);
        a.add_dynamic("tiles", 5.0);
        a.add_static("L3", 100.0);
        assert_eq!(a.dynamic_pj("tiles"), 15.0);
        assert_eq!(a.static_pj("tiles"), 0.0);
        assert_eq!(a.total_dynamic_pj(), 15.0);
        assert_eq!(a.total_static_pj(), 100.0);
        assert_eq!(a.total_pj(), 115.0);
    }

    #[test]
    fn components_are_deduplicated_and_sorted() {
        let mut a = EnergyAccount::new();
        a.add_dynamic("b", 1.0);
        a.add_static("b", 1.0);
        a.add_static("a", 1.0);
        assert_eq!(a.components(), vec!["a".to_owned(), "b".to_owned()]);
    }

    #[test]
    fn normalisation_against_a_baseline() {
        let mut baseline = EnergyAccount::new();
        baseline.add_dynamic("x", 200.0);
        let mut candidate = EnergyAccount::new();
        candidate.add_dynamic("x", 150.0);
        assert!((candidate.normalised_to(&baseline) - 0.75).abs() < 1e-12);
        assert_eq!(candidate.normalised_to(&EnergyAccount::new()), 1.0);
    }

    #[test]
    fn entry_iterators_expose_exact_bucket_contents() {
        let mut a = EnergyAccount::new();
        a.add_dynamic("tiles", 3.0);
        a.add_dynamic("L2", 0.0); // explicit zero must survive a round-trip
        a.add_static("L3", 7.5);
        let dynamic: Vec<_> = a.dynamic_entries().collect();
        assert_eq!(dynamic, vec![("L2", 0.0), ("tiles", 3.0)]);
        let static_: Vec<_> = a.static_entries().collect();
        assert_eq!(static_, vec![("L3", 7.5)]);

        // Reconstructing from the entries is PartialEq-identical.
        let mut copy = EnergyAccount::new();
        for (k, v) in a.dynamic_entries() {
            copy.add_dynamic(k, v);
        }
        for (k, v) in a.static_entries() {
            copy.add_static(k, v);
        }
        assert_eq!(a, copy);
    }

    #[test]
    fn unknown_components_read_as_zero() {
        let a = EnergyAccount::new();
        assert_eq!(a.dynamic_pj("nope"), 0.0);
        assert_eq!(a.static_pj("nope"), 0.0);
        assert_eq!(a.total_pj(), 0.0);
    }
}
