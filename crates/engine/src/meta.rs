//! The meta-rule evaluator: programmable conflict resolution.
//!
//! PARULEL's key idea: the conflict set is itself a working memory that a
//! second, *meta* level of rules matches over. A meta-rule's LHS binds
//! instantiations of named object rules (pairwise distinct) and tests
//! their matched WMEs; its RHS *redacts* (deletes) some of them.
//!
//! ## Semantics
//!
//! Redaction is **simultaneous**: every match of every meta-rule against
//! the eligible set is found, and all requested redactions are applied at
//! once. Simultaneity makes the result independent of rule and
//! instantiation enumeration order (tested in this module, and against a
//! fixpoint reference in `tests/redact_differential.rs`). (A
//! meta-pair that mutually redacts each other kills both; write a
//! tie-breaking `test` if one should survive.)
//!
//! The paper states this as rounds to a fixpoint, but **one round is the
//! fixpoint**. Every meta CE is positive, so a match over the survivors of
//! a round is also a match over that round's input, and its targets were
//! already redacted by it — a second round always finds nothing.
//!
//! ## Cost
//!
//! A round only decides *which* instantiations die, so it stops proving a
//! decision once it is made. Redactions only accumulate within the round,
//! so a partial match whose redaction targets are all chosen and already
//! marked can contribute nothing: the last target CE skips a candidate
//! that would settle its targets this way, and any deeper CE returns as
//! soon as its targets are settled. A pairwise "redact the worse one"
//! meta-rule thus finds about one witness per loser instead of
//! enumerating every pair.

use parulel_core::{FxHashMap, Instantiation, MetaRule, Program, RuleId, TestExpr, Value};

/// Result of the redaction phase.
#[derive(Clone, Debug)]
pub struct RedactOutcome {
    /// Instantiations that survived, in the input (key-sorted) order.
    pub surviving: Vec<Instantiation>,
    /// How many were redacted.
    pub redacted: usize,
    /// Rounds that redacted something: 1 if anything was redacted, else 0.
    pub rounds: usize,
}

/// An equality join key for one meta CE: candidate instantiations can be
/// hash-bucketed on `wmes[pat].field(slot)`, probed with `env[var]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct JoinKey {
    pat: usize,
    slot: u16,
    var: parulel_core::VarId,
}

/// Precomputed evaluation plan for one meta-rule: which tests can run
/// after which CE (earliest point all their variables are bound), the
/// hash-join key for each CE (the first field equated with a variable
/// bound by an earlier CE), and the CEs its actions redact. Without the
/// key, pairwise meta-rules over a conflict set of width *n* cost O(n²);
/// with it the common "same ^x" patterns cost O(n).
struct MetaPlan<'a> {
    meta: &'a MetaRule,
    /// `tests_at[k]` = tests runnable once CEs `0..=k` are bound.
    tests_at: Vec<Vec<&'a TestExpr>>,
    /// `join_key[k]` = the hash-join key for CE k, if one exists.
    join_key: Vec<Option<JoinKey>>,
    /// The CE ordinals the actions redact, deduplicated.
    targets: Vec<usize>,
}

impl<'a> MetaPlan<'a> {
    fn new(meta: &'a MetaRule) -> Self {
        // Variables are allocated scanning CEs in order, so the count
        // bound after CE k is the max Bind id seen in CEs 0..=k, plus one.
        // A key must use a variable from an earlier CE: the probe runs
        // before a candidate of this CE binds anything.
        let mut bound_after = Vec::with_capacity(meta.ces.len());
        let mut join_key = Vec::with_capacity(meta.ces.len());
        let mut bound: u16 = 0;
        for ce in &meta.ces {
            let before = bound;
            let mut key = None;
            for (p, pat) in ce.pats.iter().enumerate() {
                for t in &pat.tests {
                    match t.check {
                        parulel_core::FieldCheck::Bind(v) => bound = bound.max(v.0 + 1),
                        parulel_core::FieldCheck::Var(parulel_core::PredOp::Eq, v)
                            if v.0 < before && key.is_none() =>
                        {
                            key = Some(JoinKey {
                                pat: p,
                                slot: t.slot,
                                var: v,
                            });
                        }
                        _ => {}
                    }
                }
            }
            bound_after.push(bound);
            join_key.push(key);
        }
        let mut tests_at: Vec<Vec<&TestExpr>> = vec![Vec::new(); meta.ces.len()];
        for test in &meta.tests {
            let anchor = match test.max_var() {
                None => 0,
                Some(v) => bound_after
                    .iter()
                    .position(|&n| n > v.0)
                    .unwrap_or(meta.ces.len() - 1),
            };
            tests_at[anchor].push(test);
        }
        let mut targets: Vec<usize> = meta
            .actions
            .iter()
            .map(|parulel_core::MetaAction::Redact { ce }| *ce as usize)
            .collect();
        targets.sort_unstable();
        targets.dedup();
        MetaPlan {
            meta,
            tests_at,
            join_key,
            targets,
        }
    }
}

/// Runs all meta-rules of `program` over `eligible` in one simultaneous
/// round (which is the fixpoint; see the module docs). Input order is
/// preserved for survivors (callers pass key-sorted sets, so the output
/// is deterministic).
pub fn redact(program: &Program, eligible: Vec<Instantiation>) -> RedactOutcome {
    if program.metas().is_empty() || eligible.is_empty() {
        return RedactOutcome {
            surviving: eligible,
            redacted: 0,
            rounds: 0,
        };
    }
    // Index instantiations by rule for candidate enumeration.
    let mut by_rule: FxHashMap<RuleId, Vec<usize>> = FxHashMap::default();
    for (i, inst) in eligible.iter().enumerate() {
        by_rule.entry(inst.rule).or_default().push(i);
    }
    let mut marked = vec![false; eligible.len()];
    for meta in program.metas() {
        let plan = MetaPlan::new(meta);
        if plan.targets.is_empty() {
            continue;
        }
        // Hash-join indexes: per keyed CE, bucket the candidates by the
        // key field's value.
        let indexes: Vec<Option<FxHashMap<Value, Vec<usize>>>> = meta
            .ces
            .iter()
            .zip(&plan.join_key)
            .map(|(ce, key)| {
                key.map(|jk| {
                    let mut idx: FxHashMap<Value, Vec<usize>> = FxHashMap::default();
                    for &i in by_rule.get(&ce.rule).into_iter().flatten() {
                        let v = eligible[i].wmes[jk.pat].field(jk.slot as usize);
                        idx.entry(v.join_key()).or_default().push(i);
                    }
                    idx
                })
            })
            .collect();
        let env = vec![Value::NIL; meta.num_vars as usize];
        let mut search = Search {
            plan: &plan,
            eligible: &eligible,
            by_rule: &by_rule,
            indexes: &indexes,
            saved: vec![env.clone(); meta.ces.len()],
            env,
            chosen: Vec::with_capacity(meta.ces.len()),
            marked: &mut marked,
        };
        search.walk(0);
    }
    let mut surviving = Vec::with_capacity(eligible.len());
    for (inst, dead) in eligible.into_iter().zip(&marked) {
        if !dead {
            surviving.push(inst);
        }
    }
    let redacted = marked.len() - surviving.len();
    RedactOutcome {
        surviving,
        redacted,
        rounds: usize::from(redacted > 0),
    }
}

/// Depth-first enumeration of the matches of one meta-rule, pruned to the
/// ones that can still mark something.
struct Search<'p, 'a> {
    plan: &'p MetaPlan<'a>,
    eligible: &'p [Instantiation],
    by_rule: &'p FxHashMap<RuleId, Vec<usize>>,
    indexes: &'p [Option<FxHashMap<Value, Vec<usize>>>],
    env: Vec<Value>,
    /// `saved[k]` = `env` as CE k found it, restored after each candidate.
    saved: Vec<Vec<Value>>,
    chosen: Vec<usize>,
    marked: &'p mut [bool],
}

impl Search<'_, '_> {
    /// True iff every target CE is chosen and its instantiation marked.
    fn settled(&self) -> bool {
        self.plan
            .targets
            .iter()
            .all(|&t| self.chosen.get(t).is_some_and(|&i| self.marked[i]))
    }

    fn walk(&mut self, ce_idx: usize) {
        let plan = self.plan;
        if ce_idx == plan.meta.ces.len() {
            for &t in &plan.targets {
                self.marked[self.chosen[t]] = true;
            }
            return;
        }
        let ce = &plan.meta.ces[ce_idx];
        let last_target = *plan.targets.last().expect("a meta-rule redacts");
        // Probe the hash-join index when the CE has an equality key; fall
        // back to all candidates of the rule. Buckets are re-checked by
        // the full pattern below, so over-approximation is fine.
        let candidates: &[usize] = match (&self.indexes[ce_idx], &plan.join_key[ce_idx]) {
            (Some(idx), Some(jk)) => idx.get(&self.env[jk.var.index()].join_key()),
            _ => self.by_rule.get(&ce.rule),
        }
        .map_or(&[], Vec::as_slice);
        self.saved[ce_idx].copy_from_slice(&self.env);
        for &idx in candidates {
            // Distinct meta CEs bind distinct instantiations.
            if self.chosen.contains(&idx) {
                continue;
            }
            self.chosen.push(idx);
            let settled_here = ce_idx == last_target && self.settled();
            if !settled_here && self.binds(ce_idx, idx) {
                self.walk(ce_idx + 1);
            }
            self.env.copy_from_slice(&self.saved[ce_idx]);
            let settled_below = ce_idx > last_target && self.settled();
            self.chosen.pop();
            if settled_below {
                return;
            }
        }
    }

    /// Matches CE `ce_idx`'s patterns against instantiation `idx`,
    /// binding into `env`, then runs the tests anchored at this CE.
    fn binds(&mut self, ce_idx: usize, idx: usize) -> bool {
        let ce = &self.plan.meta.ces[ce_idx];
        let env = &mut self.env;
        ce.pats
            .iter()
            .zip(self.eligible[idx].wmes.iter())
            .all(|(pat, wme)| pat.tests.iter().all(|t| t.check_wme(wme, env)))
            && self.plan.tests_at[ce_idx].iter().all(|t| t.check(env))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parulel_core::WorkingMemory;
    use parulel_lang::compile;
    use parulel_match::{Matcher, Rete};
    use std::sync::Arc;

    /// Compiles, seeds WM via `facts` = (class, fields) rows, returns the
    /// key-sorted eligible set.
    fn eligible(src: &str, facts: &[(&str, Vec<i64>)]) -> (Program, Vec<Instantiation>) {
        let p = compile(src).unwrap();
        let mut wm = WorkingMemory::new(&p.classes);
        for (class, fields) in facts {
            let cid = p.classes.id_of(p.interner.intern(class)).unwrap();
            wm.insert(
                cid,
                fields.iter().map(|&v| Value::Int(v)).collect::<Vec<_>>(),
            );
        }
        let mut m = Rete::new(Arc::new(p.clone()));
        m.seed(&wm);
        (p.clone(), m.conflict_set().sorted())
    }

    const PICK_MIN: &str = "
        (literalize req id prio)
        (p serve (req ^id <i> ^prio <p>) --> (remove 1))
        (mp keep-best
          (inst serve (req ^prio <p1>))
          (inst serve (req ^prio <p2>))
          (test (> <p1> <p2>))
         -->
          (redact 1))";

    #[test]
    fn pairwise_minimum_survives() {
        let (p, el) = eligible(
            PICK_MIN,
            &[
                ("req", vec![1, 30]),
                ("req", vec![2, 10]),
                ("req", vec![3, 20]),
            ],
        );
        assert_eq!(el.len(), 3);
        let out = redact(&p, el);
        assert_eq!(out.surviving.len(), 1);
        assert_eq!(out.redacted, 2);
        // the survivor has prio 10
        assert_eq!(out.surviving[0].wmes[0].field(1), Value::Int(10));
        assert_eq!(out.rounds, 1);
    }

    #[test]
    fn mutual_redaction_kills_both() {
        // No tie-break test: equal priorities redact each other.
        let src = "
            (literalize req id prio)
            (p serve (req ^id <i> ^prio <p>) --> (remove 1))
            (mp collide
              (inst serve (req ^prio <p>))
              (inst serve (req ^prio <p>))
             -->
              (redact 1))";
        let (p, el) = eligible(src, &[("req", vec![1, 5]), ("req", vec![2, 5])]);
        let out = redact(&p, el);
        assert_eq!(out.surviving.len(), 0);
        assert_eq!(out.redacted, 2);
    }

    #[test]
    fn no_metas_is_identity() {
        let src = "
            (literalize req id prio)
            (p serve (req ^id <i> ^prio <p>) --> (remove 1))";
        let (p, el) = eligible(src, &[("req", vec![1, 5]), ("req", vec![2, 5])]);
        let n = el.len();
        let out = redact(&p, el);
        assert_eq!(out.surviving.len(), n);
        assert_eq!(out.rounds, 0);
    }

    #[test]
    fn positive_metas_settle_in_one_round() {
        // "Redact the larger of any adjacent pair": 3 and 2 both die in
        // the one round. A second round over the survivor {1} finds no
        // match, as it must for any program (every meta CE is positive).
        let src = "
            (literalize req id prio)
            (p serve (req ^id <i> ^prio <p>) --> (remove 1))
            (mp adj
              (inst serve (req ^prio <p1>))
              (inst serve (req ^prio <p2>))
              (test (= <p1> (+ <p2> 1)))
             -->
              (redact 1))";
        let (p, el) = eligible(
            src,
            &[
                ("req", vec![1, 1]),
                ("req", vec![2, 2]),
                ("req", vec![3, 3]),
            ],
        );
        let out = redact(&p, el);
        assert_eq!(out.surviving.len(), 1);
        assert_eq!(out.surviving[0].wmes[0].field(1), Value::Int(1));
        assert_eq!(out.redacted, 2);
        assert_eq!(out.rounds, 1);
        let again = redact(&p, out.surviving);
        assert_eq!((again.redacted, again.rounds), (0, 0));
    }

    #[test]
    fn join_key_skips_same_ce_variables() {
        // CE 2 tests <v> (bound earlier in the same CE) before <k> (bound
        // by CE 1): only <k> can probe an index.
        let p = compile(
            "
            (literalize t v w k)
            (p r (t ^v <x>) --> (remove 1))
            (mp m
              (inst r (t ^k <k>))
              (inst r (t ^v <v> ^w <v> ^k <k>))
             -->
              (redact 1))",
        )
        .unwrap();
        let plan = MetaPlan::new(&p.metas()[0]);
        assert_eq!(plan.join_key[0], None);
        let key = plan.join_key[1].expect("CE 2 is keyed on <k>");
        assert_eq!((key.pat, key.slot), (0, 2));
        assert_eq!(
            plan.meta.ces[0].pats[0].tests[0].check,
            parulel_core::FieldCheck::Bind(key.var)
        );
    }

    #[test]
    fn order_independence_of_simultaneous_rounds() {
        // Shuffle the eligible order; the surviving *set* must not change.
        let (p, el) = eligible(
            PICK_MIN,
            &[
                ("req", vec![1, 7]),
                ("req", vec![2, 3]),
                ("req", vec![3, 9]),
                ("req", vec![4, 3]),
            ],
        );
        let baseline: Vec<_> = {
            let out = redact(&p, el.clone());
            out.surviving.iter().map(|i| i.key()).collect()
        };
        let mut rev = el.clone();
        rev.reverse();
        let mut got: Vec<_> = redact(&p, rev).surviving.iter().map(|i| i.key()).collect();
        got.sort();
        let mut want = baseline.clone();
        want.sort();
        assert_eq!(got, want);
        // Two prio-3 entries: both survive vs the others, neither redacts
        // the other (test is strict >).
        assert_eq!(want.len(), 2);
    }

    #[test]
    fn wildcard_and_positional_patterns() {
        let src = "
            (literalize a x)
            (literalize b y)
            (p pair (a ^x <u>) (b ^y <v>) --> (remove 1))
            (mp drop-matching
              (inst pair _ (b ^y 2))
             -->
              (redact 1))";
        let (p, el) = eligible(src, &[("a", vec![1]), ("b", vec![2]), ("b", vec![3])]);
        assert_eq!(el.len(), 2);
        let out = redact(&p, el);
        assert_eq!(out.surviving.len(), 1);
        assert_eq!(out.surviving[0].wmes[1].field(0), Value::Int(3));
    }
}
