//! Differential suite for the meta-rule evaluator: `meta::redact` (one
//! round, settled-target pruning, hash-join keys) against a reference
//! that enumerates every match of every meta-rule in rounds to a
//! fixpoint, over random meta-rule programs and random conflict sets.
//!
//! The reference is the straightforward reading of the semantics: per
//! round, every full match of every meta-rule over the live set marks its
//! targets in a hash set, the marks are applied at once, and rounds repeat
//! until one marks nothing. It scans all live candidates of each CE's rule
//! rather than probing a join index, so it shares no candidate selection
//! with the evaluator under test.

use parulel_core::{
    ClassId, FxHashSet, InstKey, Instantiation, MetaAction, MetaRule, Program, Value, Wme, WmeId,
};
use parulel_engine::meta::redact;
use parulel_lang::compile;
use proptest::prelude::*;

/// The reference outcome: survivors in input order, redaction count,
/// rounds that redacted something, and every full match of the first
/// round as (chosen instantiations, redacted CE ordinals).
struct Reference {
    surviving: Vec<Instantiation>,
    redacted: usize,
    rounds: usize,
    first_round: Vec<(Vec<usize>, Vec<usize>)>,
}

fn reference(program: &Program, eligible: &[Instantiation]) -> Reference {
    let mut alive = vec![true; eligible.len()];
    let mut rounds = 0;
    let mut first_round = Vec::new();
    loop {
        let mut to_redact: FxHashSet<usize> = FxHashSet::default();
        let mut matches = Vec::new();
        for meta in program.metas() {
            let mut env = vec![Value::NIL; meta.num_vars as usize];
            let mut chosen = Vec::new();
            enumerate(meta, eligible, &alive, &mut env, &mut chosen, &mut matches);
        }
        for (chosen, targets) in &matches {
            to_redact.extend(targets.iter().map(|&t| chosen[t]));
        }
        if rounds == 0 {
            first_round = matches;
        }
        if to_redact.is_empty() {
            break;
        }
        for i in to_redact {
            alive[i] = false;
        }
        rounds += 1;
    }
    let surviving: Vec<Instantiation> = eligible
        .iter()
        .zip(&alive)
        .filter(|(_, &a)| a)
        .map(|(i, _)| i.clone())
        .collect();
    Reference {
        redacted: eligible.len() - surviving.len(),
        surviving,
        rounds,
        first_round,
    }
}

/// Every full match of `meta` over the live set, all tests run at the
/// end.
fn enumerate(
    meta: &MetaRule,
    eligible: &[Instantiation],
    alive: &[bool],
    env: &mut Vec<Value>,
    chosen: &mut Vec<usize>,
    out: &mut Vec<(Vec<usize>, Vec<usize>)>,
) {
    let depth = chosen.len();
    if depth == meta.ces.len() {
        if meta.tests.iter().all(|t| t.check(env)) {
            let targets = meta
                .actions
                .iter()
                .map(|MetaAction::Redact { ce }| *ce as usize)
                .collect();
            out.push((chosen.clone(), targets));
        }
        return;
    }
    let ce = &meta.ces[depth];
    for (idx, inst) in eligible.iter().enumerate() {
        if !alive[idx] || inst.rule != ce.rule || chosen.contains(&idx) {
            continue;
        }
        let saved = env.clone();
        let fits = ce
            .pats
            .iter()
            .zip(inst.wmes.iter())
            .all(|(pat, wme)| pat.tests.iter().all(|t| t.check_wme(wme, env)));
        if fits {
            chosen.push(idx);
            enumerate(meta, eligible, alive, env, chosen, out);
            chosen.pop();
        }
        *env = saved;
    }
}

/// A small deterministic generator (splitmix64) driven by one proptest
/// seed, so a failing case is reproduced from the seed alone.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }
}

const FIELDS: [&str; 3] = ["a", "b", "c"];
const OPS: [&str; 5] = [">", "<", "=", "<>", ">="];

/// What a generated case exercises, for the coverage check.
#[derive(Default)]
struct Shape {
    ce_counts: [bool; 3],
    multi_target: bool,
    non_last_target: bool,
    keyed_ce: bool,
    unkeyed_later_ce: bool,
    same_ce_var: bool,
    tie: bool,
}

/// One random meta-rule over the object rules `r1` (one CE) and `r2`
/// (two CEs). Variables are `<vN>`; a field is left open, binds a fresh
/// variable, repeats one bound by an earlier CE (a join key) or earlier in
/// the same CE, or tests a constant.
fn meta_rule(g: &mut Gen, name: usize, shape: &mut Shape) -> String {
    let ces = 1 + g.below(3);
    shape.ce_counts[ces - 1] = true;
    let mut vars: Vec<usize> = Vec::new(); // CE ordinal that bound each var
    let mut text = format!("(mp m{name}\n");
    for k in 0..ces {
        let (rule, arity) = if g.chance(50) { ("r1", 1) } else { ("r2", 2) };
        let mut keyed = false;
        text.push_str(&format!("  (inst {rule}"));
        for _ in 0..g.below(arity + 1) {
            if g.chance(15) {
                text.push_str(" _");
                continue;
            }
            text.push_str(" (o");
            let mut here: Vec<usize> = Vec::new();
            for field in FIELDS {
                let earlier: Vec<usize> = (0..vars.len()).filter(|&v| vars[v] < k).collect();
                match g.below(10) {
                    0..=3 => continue,
                    4..=5 => {
                        here.push(vars.len());
                        text.push_str(&format!(" ^{field} <v{}>", vars.len()));
                        vars.push(k);
                    }
                    6..=7 if !earlier.is_empty() => {
                        keyed = true;
                        let v = earlier[g.below(earlier.len())];
                        text.push_str(&format!(" ^{field} <v{v}>"));
                    }
                    8 if !here.is_empty() => {
                        shape.same_ce_var = true;
                        text.push_str(&format!(" ^{field} <v{}>", here[g.below(here.len())]));
                    }
                    _ => text.push_str(&format!(" ^{field} {}", g.below(3))),
                }
            }
            text.push(')');
        }
        text.push_str(")\n");
        shape.keyed_ce |= keyed;
        shape.unkeyed_later_ce |= k > 0 && !keyed;
    }
    if !vars.is_empty() {
        for _ in 0..g.below(3) {
            let op = OPS[g.below(OPS.len())];
            let x = g.below(vars.len());
            if g.chance(25) {
                text.push_str(&format!("  (test ({op} <v{x}> {}))\n", g.below(3)));
            } else {
                let y = g.below(vars.len());
                text.push_str(&format!("  (test ({op} <v{x}> <v{y}>))\n"));
            }
        }
    }
    text.push_str(" -->");
    let mut targets: Vec<usize> = (0..ces).filter(|_| g.chance(50)).collect();
    if targets.is_empty() {
        targets.push(g.below(ces));
    }
    shape.multi_target |= targets.len() > 1;
    shape.non_last_target |= targets.iter().any(|&t| t + 1 < ces);
    for t in targets {
        text.push_str(&format!(" (redact {})", t + 1));
    }
    text.push_str(")\n");
    text
}

/// A random program (1–3 meta-rules) and a key-sorted eligible set of up
/// to 24 instantiations over fresh WMEs with field values in `0..3`, so
/// equal values — ties — are common.
fn case(seed: u64) -> (Program, Vec<Instantiation>, Shape) {
    let mut g = Gen(seed);
    let mut shape = Shape::default();
    let mut src = String::from(
        "(literalize o a b c)
         (p r1 (o ^a <x>) --> (remove 1))
         (p r2 (o ^a <x>) (o ^b <y>) --> (remove 1))\n",
    );
    for m in 0..1 + g.below(3) {
        src.push_str(&meta_rule(&mut g, m, &mut shape));
    }
    let program = compile(&src).unwrap_or_else(|e| panic!("{e}\n{src}"));
    let class: ClassId = program.classes.id_of(program.interner.intern("o")).unwrap();
    let rules = [
        program.rule_by_name(program.interner.intern("r1")).unwrap(),
        program.rule_by_name(program.interner.intern("r2")).unwrap(),
    ];
    let mut next_id = 0u64;
    let mut eligible: Vec<Instantiation> = (0..g.below(25))
        .map(|_| {
            let r = g.below(2);
            let wmes: Vec<Wme> = (0..=r)
                .map(|_| {
                    // Ids out of creation order, so key order is not it.
                    next_id += 1 + g.below(3) as u64;
                    let id = WmeId(next_id ^ 0x5);
                    Wme::new(
                        id,
                        class,
                        (0..3)
                            .map(|_| Value::Int(g.below(3) as i64))
                            .collect::<Vec<_>>(),
                    )
                })
                .collect();
            Instantiation::new(rules[r], wmes, vec![])
        })
        .collect();
    eligible.sort_by_key(Instantiation::key);
    eligible.dedup_by_key(|i| i.key());
    for (k, a) in eligible.iter().enumerate() {
        shape.tie |= eligible[k + 1..]
            .iter()
            .any(|b| a.rule == b.rule && a.wmes[0].fields == b.wmes[0].fields);
    }
    (program, eligible, shape)
}

fn keys(insts: &[Instantiation]) -> Vec<InstKey> {
    insts.iter().map(Instantiation::key).collect()
}

/// Two first-round matches where each one's target witnesses the other.
fn has_mutual_redaction(matches: &[(Vec<usize>, Vec<usize>)]) -> bool {
    let edges: Vec<(usize, usize)> = matches
        .iter()
        .flat_map(|(chosen, targets)| {
            targets.iter().flat_map(move |&t| {
                chosen
                    .iter()
                    .filter(move |&&w| w != chosen[t])
                    .map(move |&w| (chosen[t], w))
            })
        })
        .collect();
    edges.iter().any(|&(a, b)| edges.contains(&(b, a)))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn redact_matches_the_fixpoint_reference(seed in any::<u64>()) {
        let (program, eligible, _) = case(seed);
        let want = reference(&program, &eligible);
        let got = redact(&program, eligible.clone());
        prop_assert_eq!(keys(&got.surviving), keys(&want.surviving), "seed {}", seed);
        prop_assert_eq!(got.redacted, want.redacted, "seed {}", seed);
        prop_assert_eq!(got.rounds, want.rounds, "seed {}", seed);
        prop_assert!(want.rounds <= 1, "the reference settled in one round, seed {}", seed);
        let again = redact(&program, got.surviving);
        prop_assert_eq!((again.redacted, again.rounds), (0, 0), "seed {}", seed);
    }
}

/// The generator reaches every shape the suite claims to cover, over
/// the same number of cases the property runs.
#[test]
fn generator_covers_the_interesting_shapes() {
    let mut seen = Shape::default();
    let (mut mutual, mut redacted, mut survived) = (false, false, false);
    let mut g = Gen(0x7e57);
    for _ in 0..512 {
        let (program, eligible, shape) = case(g.next());
        for k in 0..3 {
            seen.ce_counts[k] |= shape.ce_counts[k];
        }
        seen.multi_target |= shape.multi_target;
        seen.non_last_target |= shape.non_last_target;
        seen.keyed_ce |= shape.keyed_ce;
        seen.unkeyed_later_ce |= shape.unkeyed_later_ce;
        seen.same_ce_var |= shape.same_ce_var;
        seen.tie |= shape.tie;
        let r = reference(&program, &eligible);
        mutual |= has_mutual_redaction(&r.first_round);
        redacted |= r.redacted > 0;
        survived |= !r.surviving.is_empty() && r.redacted > 0;
    }
    assert_eq!(seen.ce_counts, [true; 3], "1-, 2- and 3-CE meta-rules");
    assert!(seen.multi_target, "multi-target redaction");
    assert!(seen.non_last_target, "a target on a non-last CE");
    assert!(seen.keyed_ce, "a CE with a join key");
    assert!(seen.unkeyed_later_ce, "a later CE without a join key");
    assert!(seen.same_ce_var, "a variable repeated within one CE");
    assert!(seen.tie, "equal-valued instantiations");
    assert!(mutual, "mutual redaction");
    assert!(redacted && survived, "partial redaction");
}
