//! Refraction: an instantiation fires at most once while it remains
//! continuously in the conflict set.
//!
//! Without refraction, any rule whose firing does not retract its own
//! support (e.g. a pure `make` rule) would fire forever. OPS5 and PARULEL
//! both refract; the PARULEL twist is that refraction applies to the whole
//! fired *set* each cycle.
//!
//! An entry is dropped as soon as its instantiation leaves the conflict
//! set, so a match whose support is retracted and later re-asserted is a
//! *new* instantiation and may fire again.

use parulel_core::{ConflictSet, FxHashSet, InstKey, Instantiation, RuleId};

/// The set of fired-and-still-present instantiation keys.
#[derive(Clone, Debug, Default)]
pub struct Refraction {
    fired: FxHashSet<InstKey>,
}

impl Refraction {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The eligible (unrefracted) instantiations of `cs`, sorted by key
    /// for deterministic downstream processing.
    pub fn eligible(&self, cs: &ConflictSet) -> Vec<Instantiation> {
        // Building a key to probe an empty table is wasted allocation.
        let mut v: Vec<Instantiation> = cs
            .iter()
            .filter(|i| self.fired.is_empty() || !self.fired.contains(&i.key()))
            .cloned()
            .collect();
        // Keys are unique in a conflict set, so an unstable sort is
        // deterministic.
        v.sort_unstable_by(Instantiation::cmp_key);
        v
    }

    /// Records that `insts` fired this cycle.
    pub fn record<'a>(&mut self, insts: impl IntoIterator<Item = &'a Instantiation>) {
        for i in insts {
            self.fired.insert(i.key());
        }
    }

    /// Drops entries whose instantiation has left the conflict set.
    pub fn prune(&mut self, cs: &ConflictSet) {
        self.fired.retain(|k| cs.contains(k));
    }

    /// Re-keys entries for rule `old` under each id in `copies` as well.
    ///
    /// When copy-and-constrain splits a live rule, an instantiation that
    /// fired under the old rule reappears in the conflict set under exactly
    /// one copy's id (the copies partition the original's matches, and
    /// copy-and-constrain changes neither the CEs' order nor which WMEs
    /// match). Cloning the fired key to every copy keeps that instantiation
    /// refracted — without this it would refire after the split. The keys
    /// cloned to the *wrong* copies match nothing and are dropped by the
    /// next [`prune`](Self::prune).
    pub fn expand_rule(&mut self, old: RuleId, copies: &[RuleId]) {
        let expanded: Vec<InstKey> = self
            .fired
            .iter()
            .filter(|k| k.rule == old)
            .flat_map(|k| {
                copies.iter().map(|&c| InstKey {
                    rule: c,
                    wmes: k.wmes.clone(),
                })
            })
            .collect();
        self.fired.extend(expanded);
    }

    /// Iterates the live refraction keys (arbitrary order). Used by
    /// checkpointing to capture the table.
    pub fn keys(&self) -> impl Iterator<Item = &InstKey> {
        self.fired.iter()
    }

    /// Rebuilds a table from previously captured keys (checkpoint
    /// restore).
    pub fn from_keys(keys: impl IntoIterator<Item = InstKey>) -> Self {
        Refraction {
            fired: keys.into_iter().collect(),
        }
    }

    /// Number of live refraction entries.
    pub fn len(&self) -> usize {
        self.fired.len()
    }

    /// True iff no entries.
    pub fn is_empty(&self) -> bool {
        self.fired.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parulel_core::{ClassId, RuleId, Value, Wme, WmeId};

    fn inst(rule: u32, ids: &[u64]) -> Instantiation {
        let wmes: Vec<Wme> = ids
            .iter()
            .map(|&i| Wme::new(WmeId(i), ClassId(0), vec![Value::Int(0)]))
            .collect();
        Instantiation::new(RuleId(rule), wmes, vec![])
    }

    #[test]
    fn fired_instantiations_become_ineligible() {
        let mut cs = ConflictSet::new();
        cs.insert(inst(0, &[1]));
        cs.insert(inst(0, &[2]));
        let mut r = Refraction::new();
        let e = r.eligible(&cs);
        assert_eq!(e.len(), 2);
        r.record(e.iter().take(1));
        assert_eq!(r.eligible(&cs).len(), 1);
        r.record(r.eligible(&cs).iter());
        assert!(r.eligible(&cs).is_empty());
    }

    #[test]
    fn prune_drops_departed_entries() {
        let mut cs = ConflictSet::new();
        cs.insert(inst(0, &[1]));
        let mut r = Refraction::new();
        r.record(r.eligible(&cs).iter());
        assert_eq!(r.len(), 1);
        cs.remove(&inst(0, &[1]).key());
        r.prune(&cs);
        assert!(r.is_empty());
        // Re-entering the conflict set makes it eligible again.
        cs.insert(inst(0, &[1]));
        assert_eq!(r.eligible(&cs).len(), 1);
    }

    #[test]
    fn keys_roundtrip_through_from_keys() {
        let mut cs = ConflictSet::new();
        cs.insert(inst(0, &[1]));
        cs.insert(inst(1, &[2]));
        let mut r = Refraction::new();
        r.record(r.eligible(&cs).iter());
        let restored = Refraction::from_keys(r.keys().cloned());
        assert_eq!(restored.len(), 2);
        assert!(restored.eligible(&cs).is_empty());
    }

    #[test]
    fn expand_rule_keeps_split_instantiations_refracted() {
        let mut cs = ConflictSet::new();
        cs.insert(inst(0, &[1]));
        cs.insert(inst(0, &[2]));
        cs.insert(inst(1, &[3]));
        let mut r = Refraction::new();
        r.record(r.eligible(&cs).iter());

        // Split rule 0 into copies {0 (in place), 5, 6}: each old match
        // reappears under exactly one of the three ids.
        r.expand_rule(RuleId(0), &[RuleId(5), RuleId(6)]);
        let mut cs2 = ConflictSet::new();
        cs2.insert(inst(0, &[1])); // landed in residue 0
        cs2.insert(inst(6, &[2])); // landed in residue 2
        cs2.insert(inst(1, &[3])); // untouched rule
        assert!(r.eligible(&cs2).is_empty(), "nothing refires post-split");

        // Prune drops the keys cloned to copies that didn't win the match.
        r.prune(&cs2);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn eligible_is_sorted_by_key() {
        let mut cs = ConflictSet::new();
        for ids in [[9u64], [2], [5]] {
            cs.insert(inst(0, &ids));
        }
        let e = Refraction::new().eligible(&cs);
        let keys: Vec<_> = e.iter().map(|i| i.key()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }
}
