//! An incremental RETE network (Forgy 1982), the state-saving matcher
//! PARULEL's cycle is built on.
//!
//! ## Structure
//!
//! The constant-test layer is the crate-wide [`AlphaNetwork`]: alpha
//! memories are deduplicated by (class, constant-test) key and shared
//! across rules, WME payloads live once in a flat generational arena, and
//! a WME add runs each distinct test list once before fanning out to the
//! subscribing (rule, CE) endpoints. The beta layer stays per rule:
//!
//! * One linear network per rule ("rule net"): level *k* of a net
//!   corresponds to condition element *k* in join order. Each level holds
//!   a subscription to its shared alpha node and probes the node's hash
//!   index over its **equality join keys** (the `(slot, var)` pairs where
//!   the CE equates a field with a variable bound by an earlier CE).
//! * A **token** is a consistent match of the first *k* CEs, kept in its
//!   level's slab under a `u32` handle (freed slots are recycled). It
//!   holds a **parent link** to the input token it extends — an output of
//!   the previous level, or the root — and, at a positive level, the WME
//!   it matched (id and 8-byte arena handle) and its bindings; a negative
//!   level's token reads its parent's. Its matched WMEs are its chain.
//! * A token lists its children and sits in `Vec` buckets at recorded
//!   positions, so unlinking is a swap-remove: the next level's left
//!   index, by join-key values, and its own level's removal index, by the
//!   WME it matched itself. Deeper tokens go with it through its children.
//! * Positive levels join input tokens with their alpha node: candidates
//!   come from the shared hash index, residual beta tests and anchored
//!   rule tests run per candidate.
//! * Negative levels are **counted**: an input token carries how many of
//!   the level's alpha WMEs are consistent with it, and has one
//!   pass-through child while that count is zero.
//! * The last level's outputs are the rule's instantiations, kept in the
//!   [`ConflictSet`]; their `Arc<[WmeId]>` key is built from the chain
//!   only when one enters or leaves the set.
//!
//! ## Delivery discipline
//!
//! The shared network inserts membership *before* any beta delivery, so a
//! token built during an add has already joined with (or counted) the new
//! WME — and contains it, as an add only builds extensions by it. Delivery
//! at each hit level therefore **skips input tokens whose chain contains
//! the added WME**: nothing is joined or counted twice.
//!
//! A remove retracts, shallow to deep, the tokens that matched the WME
//! themselves, children before parents (a final token's chain is live
//! while its key is built). Negative re-activation then runs deepest level
//! first: it builds only deeper tokens, whose counts are computed fresh
//! from the shrunk membership at levels already handled, so every input
//! it sees predates the delivery and counted the WME.

use crate::alpha::{AlphaNetwork, Endpoint, KeyVals, NodeId};
use crate::arena::WmeRef;
use crate::Matcher;
use parulel_core::{
    ConditionElement, ConflictSet, CsEvent, FxHashMap, FxHashSet, InstKey, Instantiation, Polarity,
    Program, RuleId, Value, VarId, Wme, WmeId, WorkingMemory,
};
use parulel_vm::{EvalMode, Evaluator};
use std::hash::Hash;
use std::sync::Arc;

/// Handle of a token in a level's slab.
type Tok = u32;

/// Handle of the root token, level 0's only input.
const ROOT: Tok = 0;

/// The parent link of an unused slab slot.
const FREE: Tok = Tok::MAX;

/// A partial match: the first `k` CEs of a rule, satisfied consistently.
#[derive(Default)]
struct Token {
    /// The input token this one extends or passes through, in the
    /// previous level's slab ([`ROOT`] at level 0, [`FREE`] when unused).
    parent: Tok,
    /// Positive levels: the WME matched here.
    wme: Option<(WmeId, WmeRef)>,
    /// Positive levels: the variable bindings (full rule width). Empty at
    /// negative levels, whose tokens read their parent's.
    env: Box<[Value]>,
    /// The next level's outputs derived from this token.
    children: Vec<Tok>,
    /// When the next level is negative: how many of its alpha WMEs are
    /// consistent with this token. It passes through iff the count is 0.
    count: u32,
    /// Position in the parent's `children`.
    child_pos: u32,
    /// Position in the next level's `left_index` bucket.
    left_pos: u32,
    /// Position in this level's `by_wme` bucket.
    wme_pos: u32,
}

/// One level of a rule net.
struct Level {
    ce: ConditionElement,
    /// Equality join keys: `(slot, var)`.
    keys: Vec<(u16, VarId)>,
    /// The join-key field slots (the shared index this level probes).
    slots: Box<[u16]>,
    /// This level's subscription in the shared alpha network.
    node: NodeId,
    /// Input tokens (previous level's outputs, or the root) by this
    /// level's join-key values.
    left_index: FxHashMap<KeyVals, Vec<Tok>>,
    /// Output tokens; the slots listed in `free` are unused.
    slab: Vec<Token>,
    free: Vec<Tok>,
    /// Removal index (positive levels): WME id → outputs that matched it
    /// at this level.
    by_wme: FxHashMap<WmeId, Vec<Tok>>,
}

impl Level {
    fn is_negative(&self) -> bool {
        self.ce.polarity == Polarity::Negative
    }

    /// Live output tokens.
    fn live(&self) -> usize {
        self.slab.len() - self.free.len()
    }

    fn wme_keyvals(&self, wme: &Wme) -> KeyVals {
        self.keys
            .iter()
            .map(|&(slot, _)| wme.field(slot as usize).join_key())
            .collect()
    }

    fn token_keyvals(&self, env: &[Value]) -> KeyVals {
        self.keys
            .iter()
            .map(|&(_, var)| env[var.index()].join_key())
            .collect()
    }

    /// Takes a slot for an output of `parent`. A positive level's token
    /// takes over `env` (handing back the slot's old buffer).
    fn alloc(&mut self, parent: Tok, wme: Option<(WmeId, WmeRef)>, env: &mut Box<[Value]>) -> Tok {
        let h = self.free.pop().unwrap_or_else(|| {
            self.slab.push(Token::default());
            (self.slab.len() - 1) as Tok
        });
        let tok = &mut self.slab[h as usize];
        tok.parent = parent;
        tok.wme = wme;
        tok.count = 0;
        if wme.is_some() {
            std::mem::swap(&mut tok.env, env);
        }
        h
    }
}

/// Copies `env` into `buf`, allocating only when a fresh slot took the
/// previous buffer.
fn load(buf: &mut Box<[Value]>, env: &[Value]) {
    if buf.len() == env.len() {
        buf.copy_from_slice(env);
    } else {
        *buf = env.into();
    }
}

/// Swap-removes position `pos` of `bucket`; returns the handle moved into
/// `pos`, whose recorded position the caller updates.
fn swap_out(bucket: &mut Vec<Tok>, pos: u32) -> Option<Tok> {
    bucket.swap_remove(pos as usize);
    bucket.get(pos as usize).copied()
}

/// [`swap_out`] on the bucket under `key`, dropping the bucket once empty.
fn unfile<K: Hash + Eq>(index: &mut FxHashMap<K, Vec<Tok>>, key: &K, pos: u32) -> Option<Tok> {
    let bucket = index.get_mut(key).expect("token missing from its bucket");
    let moved = swap_out(bucket, pos);
    if bucket.is_empty() {
        index.remove(key);
    }
    moved
}

/// The state a rule net's delivery shares with the other nets.
struct Ctx<'a> {
    alpha: &'a AlphaNetwork,
    cs: &'a mut ConflictSet,
    eval: &'a Evaluator,
}

/// One rule's beta network.
struct RuleNet {
    rule: RuleId,
    levels: Vec<Level>,
    /// Level 0's input: no WMEs, every variable unbound.
    root: Token,
    /// Bindings buffer for beta tests; a joined token takes it over.
    scratch: Box<[Value]>,
}

/// The incremental RETE matcher: shared alpha network + per-rule beta
/// nets.
pub struct Rete {
    alpha: AlphaNetwork,
    eval: Evaluator,
    nets: Vec<RuleNet>,
    cs: ConflictSet,
}

impl Rete {
    /// Builds a network for every rule of `program`, with alpha sharing.
    pub fn new(program: Arc<Program>) -> Self {
        let rules = (0..program.rules().len() as u32).map(RuleId).collect();
        Self::with_rules(program, rules)
    }

    /// Builds networks for a subset of rules (the partitioned matcher's
    /// workers use this), with alpha sharing.
    pub fn with_rules(program: Arc<Program>, rules: Vec<RuleId>) -> Self {
        Self::with_rules_sharing(program, rules, true)
    }

    /// Like [`with_rules`](Self::with_rules) but with alpha-memory
    /// deduplication switchable — `dedup = false` keeps one node per
    /// (rule, CE), the per-rule baseline the joinbench ablation measures
    /// against.
    pub fn with_rules_sharing(program: Arc<Program>, rules: Vec<RuleId>, dedup: bool) -> Self {
        let eval = Evaluator::new(program.clone(), EvalMode::default());
        Self::with_rules_eval(program, rules, dedup, eval)
    }

    /// Like [`with_rules_sharing`](Self::with_rules_sharing) with a
    /// caller-built [`Evaluator`] (the engine compiles once and hands out
    /// clones; the alpha network inherits the evaluator's mode).
    pub fn with_rules_eval(
        program: Arc<Program>,
        rules: Vec<RuleId>,
        dedup: bool,
        eval: Evaluator,
    ) -> Self {
        let mut alpha = AlphaNetwork::new_with_eval(program.classes.len(), dedup, eval.mode());
        let mut nets = Vec::with_capacity(rules.len());
        let mut cs = ConflictSet::new();
        for rid in rules {
            nets.push(build_net(&program, rid, &mut alpha, &mut cs, &eval));
        }
        Rete {
            alpha,
            eval,
            nets,
            cs,
        }
    }

    /// Verifies every cross-index of the network agrees (the
    /// differential suite calls this after each batch in debug builds so
    /// index leaks/desyncs surface at the op that caused them, not as a
    /// wrong conflict set much later). Panics with a description on
    /// violation.
    pub fn check_invariants(&self) {
        // Store/node/index/refcount agreement inside the shared layer.
        self.alpha.check_invariants();
        for net in &self.nets {
            for k in 0..net.depth() {
                net.check_level(k, &self.alpha, &self.eval);
            }
            // The last level's outputs are exactly this rule's
            // conflict-set entries, each once.
            if net.depth() > 0 {
                let finals = net.live_toks(net.depth());
                let keys: FxHashSet<InstKey> = finals.iter().map(|&h| net.key(h)).collect();
                let in_cs = self.cs.iter().filter(|i| i.rule == net.rule).count();
                assert!(
                    keys.len() == finals.len()
                        && keys.len() == in_cs
                        && keys.iter().all(|k| self.cs.contains(k)),
                    "r{}: final tokens and conflict set disagree",
                    net.rule.0
                );
            }
        }
    }
}

/// Builds one rule's net — subscribing each level to the shared alpha
/// network — and derives its complete token set from the current store in
/// one batch pass (no per-WME replay: counts and joins are computed from
/// full node membership). On an empty store this degenerates to the
/// root-only state; `replace_rules` gets post-split nets for free.
///
/// Inserts into `cs` anything the net derives (a leading-negative rule
/// with no blockers matches the root token; a zero-CE rule has exactly
/// one vacuous instantiation, matching what enumeration-based matchers
/// produce).
fn build_net(
    program: &Program,
    rid: RuleId,
    alpha: &mut AlphaNetwork,
    cs: &mut ConflictSet,
    eval: &Evaluator,
) -> RuleNet {
    let rule = program.rule(rid);
    let levels: Vec<Level> = rule
        .ces
        .iter()
        .enumerate()
        .map(|(k, ce)| {
            let keys = ce.eq_join_keys(rule.vars_bound_by(k));
            let slots: Box<[u16]> = keys.iter().map(|&(slot, _)| slot).collect();
            let node = alpha.subscribe(ce, rid, k);
            alpha.subscribe_index(node, &slots);
            Level {
                ce: ce.clone(),
                keys,
                slots,
                node,
                left_index: FxHashMap::default(),
                slab: Vec::new(),
                free: Vec::new(),
                by_wme: FxHashMap::default(),
            }
        })
        .collect();
    let root = Token {
        env: vec![Value::NIL; rule.num_vars as usize].into(),
        ..Token::default()
    };
    let mut net = RuleNet {
        rule: rid,
        levels,
        root,
        scratch: Box::default(),
    };
    if net.levels.is_empty() {
        // No CEs at all: both the `parulel-lang` parser (empty LHS) and
        // `Program::add_rule` (no positive CE) reject such rules, so this
        // is unreachable through the public pipeline — but match
        // vacuously (once, like enumeration-based matchers would) rather
        // than leave a latent `levels[0]` panic below.
        cs.insert(Instantiation::new(rid, Vec::<Wme>::new(), &*net.root.env));
    } else {
        // Register the root as level 0's input, deriving the token set
        // from whatever the store already holds.
        net.enter(0, ROOT, &mut Ctx { alpha, cs, eval });
    }
    net
}

impl RuleNet {
    /// Number of levels.
    fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Token `h` at position `k`: the root for `k == 0`, else an output
    /// of level `k - 1` (position `k` holds level `k`'s inputs).
    fn tok(&self, k: usize, h: Tok) -> &Token {
        match k {
            0 => &self.root,
            _ => &self.levels[k - 1].slab[h as usize],
        }
    }

    fn tok_mut(&mut self, k: usize, h: Tok) -> &mut Token {
        match k {
            0 => &mut self.root,
            _ => &mut self.levels[k - 1].slab[h as usize],
        }
    }

    /// Live input tokens of level `k`.
    fn inputs(&self, k: usize) -> usize {
        k.checked_sub(1).map_or(1, |j| self.levels[j].live())
    }

    /// Live tokens at position `k`.
    fn live_toks(&self, k: usize) -> Vec<Tok> {
        match k {
            0 => vec![ROOT],
            _ => (0..self.levels[k - 1].slab.len() as Tok)
                .filter(|&h| self.tok(k, h).parent != FREE)
                .collect(),
        }
    }

    /// [`Rete::check_invariants`] for level `k`.
    fn check_level(&self, k: usize, alpha: &AlphaNetwork, eval: &Evaluator) {
        let (level, at) = (&self.levels[k], format!("r{} L{k}", self.rule.0));
        let endpoint = Endpoint {
            rule: self.rule,
            ce: k as u32,
        };
        assert!(
            alpha.endpoints(level.node).contains(&endpoint),
            "{at}: no endpoint"
        );
        assert!(
            alpha.index_len(level.node, &level.slots).is_some(),
            "{at}: no join index"
        );
        let mut free = level.free.clone();
        free.sort_unstable();
        free.dedup();
        let unused =
            (0..level.slab.len() as Tok).filter(|&h| level.slab[h as usize].parent == FREE);
        assert!(
            free.len() == level.free.len() && free.into_iter().eq(unused),
            "{at}: free list"
        );
        // Every output sits under its parent and in its removal bucket at
        // the recorded positions, and holds a live member of the node.
        for h in self.live_toks(k + 1) {
            let tok = self.tok(k + 1, h);
            let parent = self.tok(k, tok.parent);
            let sibling = parent.children.get(tok.child_pos as usize);
            assert_eq!(sibling, Some(&h), "{at}: token missing under its parent");
            match tok.wme {
                Some((id, wref)) => {
                    assert_eq!(
                        alpha.try_wme(wref).map(|w| w.id),
                        Some(id),
                        "{at}: stale ref"
                    );
                    assert!(
                        alpha.members(level.node).contains_key(&id),
                        "{at}: not a member"
                    );
                    let filed = level
                        .by_wme
                        .get(&id)
                        .and_then(|b| b.get(tok.wme_pos as usize));
                    assert_eq!(filed, Some(&h), "{at}: token missing from by_wme[{id}]");
                }
                None => assert!(
                    level.is_negative() && parent.count == 0,
                    "{at}: pass-through"
                ),
            }
        }
        // Inputs are filed in the left index at their positions, their
        // children are exactly the outputs, and negative counts and
        // pass-throughs agree with a recount.
        let inputs = self.live_toks(k);
        let filed: usize = level.left_index.values().map(Vec::len).sum();
        let kids: usize = inputs.iter().map(|&h| self.tok(k, h).children.len()).sum();
        let removable: usize = level.by_wme.values().map(Vec::len).sum();
        let want_removable = if level.is_negative() { 0 } else { level.live() };
        assert_eq!(
            (filed, kids, removable),
            (inputs.len(), level.live(), want_removable),
            "{at}: index sizes"
        );
        let mut buckets = level.by_wme.values().chain(level.left_index.values());
        assert!(buckets.all(|b| !b.is_empty()), "{at}: empty bucket");
        for h in inputs {
            let (tok, env) = (self.tok(k, h), self.env(k, h));
            let kv = level.token_keyvals(env);
            let filed = level
                .left_index
                .get(&kv)
                .and_then(|b| b.get(tok.left_pos as usize));
            assert_eq!(filed, Some(&h), "{at}: input missing from the left index");
            if level.is_negative() {
                let blockers = alpha.index_bucket(level.node, &level.slots, &kv);
                let count = (blockers.into_iter().flatten())
                    .filter(|&&r| eval.run_beta(self.rule, k, alpha.wme(r), &mut env.to_vec()))
                    .count();
                let pass = count == 0 && eval.tests_pass_at(self.rule, k, env);
                let got = (tok.count as usize, tok.children.len());
                assert_eq!(got, (count, usize::from(pass)), "{at}: stale count");
            }
        }
    }

    /// Bindings of token `h` at position `k` (found up the parent chain
    /// past negative levels).
    fn env(&self, mut k: usize, mut h: Tok) -> &[Value] {
        while k > 0 && self.levels[k - 1].is_negative() {
            h = self.levels[k - 1].slab[h as usize].parent;
            k -= 1;
        }
        &self.tok(k, h).env
    }

    /// The WMEs matched by token `h` at position `k`, in CE order.
    fn chain(&self, mut k: usize, mut h: Tok) -> Vec<(WmeId, WmeRef)> {
        let mut out = Vec::new();
        while k > 0 {
            let tok = self.tok(k, h);
            out.extend(tok.wme);
            (k, h) = (k - 1, tok.parent);
        }
        out.reverse();
        out
    }

    /// Whether token `h` at position `k` matched the WME `id`.
    fn contains(&self, mut k: usize, mut h: Tok, id: WmeId) -> bool {
        while k > 0 {
            let tok = self.tok(k, h);
            if tok.wme.is_some_and(|(w, _)| w == id) {
                return true;
            }
            (k, h) = (k - 1, tok.parent);
        }
        false
    }

    /// The conflict-set key of final token `h`.
    fn key(&self, h: Tok) -> InstKey {
        let wmes = self
            .chain(self.depth(), h)
            .iter()
            .map(|&(id, _)| id)
            .collect();
        InstKey {
            rule: self.rule,
            wmes,
        }
    }

    /// Does `wme` pass level `k`'s beta tests against its input `h`? The
    /// bindings are left in `self.scratch`.
    fn beta(&mut self, k: usize, h: Tok, wme: &Wme, eval: &Evaluator) -> bool {
        let mut buf = std::mem::take(&mut self.scratch);
        load(&mut buf, self.env(k, h));
        let pass = eval.run_beta(self.rule, k, wme, &mut buf);
        self.scratch = buf;
        pass
    }

    /// The current input tokens of level `k` whose join keys match `wme`.
    fn left_inputs(&self, k: usize, wme: &Wme) -> Vec<Tok> {
        let level = &self.levels[k];
        let kv = level.wme_keyvals(wme);
        level.left_index.get(&kv).cloned().unwrap_or_default()
    }

    /// Files token `h` at position `k` as an input of level `k` and
    /// derives what it yields there: its blocker count at a negative
    /// level, its joins at a positive one.
    fn enter(&mut self, k: usize, h: Tok, cx: &mut Ctx) {
        let (level, alpha) = (&self.levels[k], cx.alpha);
        let kv = level.token_keyvals(self.env(k, h));
        let candidates = alpha.index_bucket(level.node, &level.slots, &kv);
        let bucket = self.levels[k].left_index.entry(kv).or_default();
        let pos = bucket.len() as u32;
        bucket.push(h);
        self.tok_mut(k, h).left_pos = pos;
        let candidates = candidates.into_iter().flatten();
        if self.levels[k].is_negative() {
            let count = candidates.filter(|&&r| self.beta(k, h, alpha.wme(r), cx.eval));
            let count = count.count() as u32;
            self.tok_mut(k, h).count = count;
            if count == 0 {
                self.pass_through(k, h, cx);
            }
        } else {
            for &r in candidates {
                self.join(k, h, r, cx);
            }
        }
    }

    /// Extends input `h` of positive level `k` with the WME behind `wref`,
    /// if consistent. Copies the 8-byte handle, never the payload.
    fn join(&mut self, k: usize, h: Tok, wref: WmeRef, cx: &mut Ctx) {
        let wme = cx.alpha.wme(wref);
        if self.beta(k, h, wme, cx.eval) && cx.eval.tests_pass_at(self.rule, k, &self.scratch) {
            self.insert(k, h, Some((wme.id, wref)), cx);
        }
    }

    /// Passes unblocked input `h` through negative level `k` if its
    /// anchored tests hold (its bindings are unchanged).
    fn pass_through(&mut self, k: usize, h: Tok, cx: &mut Ctx) {
        if cx.eval.tests_pass_at(self.rule, k, self.env(k, h)) {
            self.insert(k, h, None, cx);
        }
    }

    /// Adds an output of level `k` under input `parent` — a positive
    /// level's bindings come from `self.scratch` — and propagates it.
    fn insert(&mut self, k: usize, parent: Tok, wme: Option<(WmeId, WmeRef)>, cx: &mut Ctx) {
        let mut buf = std::mem::take(&mut self.scratch);
        let h = self.levels[k].alloc(parent, wme, &mut buf);
        self.scratch = buf;
        let siblings = &mut self.tok_mut(k, parent).children;
        let child_pos = siblings.len() as u32;
        siblings.push(h);
        let level = &mut self.levels[k];
        level.slab[h as usize].child_pos = child_pos;
        if let Some((id, _)) = wme {
            let bucket = level.by_wme.entry(id).or_default();
            level.slab[h as usize].wme_pos = bucket.len() as u32;
            bucket.push(h);
        }
        if k + 1 < self.depth() {
            return self.enter(k + 1, h, cx);
        }
        // The only place full WME payloads are cloned: materializing the
        // instantiation handed to the conflict set.
        let wmes = self.chain(k + 1, h).into_iter();
        let wmes: Vec<Wme> = wmes.map(|(_, r)| cx.alpha.wme(r).clone()).collect();
        cx.cs
            .insert(Instantiation::new(self.rule, wmes, self.env(k + 1, h)));
    }

    /// Removes output `h` of level `k` and everything derived from it,
    /// children first, so a final token's chain is live while its
    /// conflict-set key is built.
    fn remove(&mut self, k: usize, h: Tok, cs: &mut ConflictSet) {
        while let Some(&c) = self.levels[k].slab[h as usize].children.last() {
            self.remove(k + 1, c, cs);
        }
        if let Some(next) = self.levels.get(k + 1) {
            let kv = next.token_keyvals(self.env(k + 1, h));
            let pos = self.levels[k].slab[h as usize].left_pos;
            if let Some(m) = unfile(&mut self.levels[k + 1].left_index, &kv, pos) {
                self.levels[k].slab[m as usize].left_pos = pos;
            }
        } else {
            cs.remove(&self.key(h));
        }
        let level = &mut self.levels[k];
        let tok = &level.slab[h as usize];
        let (parent, child_pos, wme_pos) = (tok.parent, tok.child_pos, tok.wme_pos);
        if let Some((id, _)) = tok.wme {
            if let Some(m) = unfile(&mut level.by_wme, &id, wme_pos) {
                level.slab[m as usize].wme_pos = wme_pos;
            }
        }
        level.slab[h as usize].parent = FREE;
        level.free.push(h);
        if let Some(m) = swap_out(&mut self.tok_mut(k, parent).children, child_pos) {
            self.levels[k].slab[m as usize].child_pos = child_pos;
        }
    }

    /// Beta delivery for one added WME, at the levels (`hits`, ascending)
    /// whose shared alpha nodes it entered.
    fn deliver_add(&mut self, hits: &[usize], wref: WmeRef, wme: &Wme, cx: &mut Ctx) {
        for (i, &k) in hits.iter().enumerate() {
            // Inputs built during this delivery contain the WME (only
            // possible once it matched a shallower positive level) and
            // already saw it: skip them.
            let fresh = hits[..i].iter().any(|&j| !self.levels[j].is_negative());
            for h in self.left_inputs(k, wme) {
                if fresh && self.contains(k, h, wme.id) {
                    continue;
                }
                if !self.levels[k].is_negative() {
                    self.join(k, h, wref, cx);
                } else if self.beta(k, h, wme, cx.eval) {
                    let tok = self.tok_mut(k, h);
                    tok.count += 1;
                    if let (1, Some(&child)) = (tok.count, tok.children.first()) {
                        self.remove(k, child, cx.cs);
                    }
                }
            }
        }
    }

    /// Beta retraction for one removed WME (already gone from the shared
    /// store), at the levels whose nodes it left.
    fn deliver_remove(&mut self, hits: &[usize], wme: &Wme, cx: &mut Ctx) {
        // 1. Retract, shallow to deep, the tokens that matched the WME
        //    themselves; the cascade takes every token containing it
        //    (deeper buckets are usually empty by the time their level is
        //    reached). This phase only removes, never inserts.
        for &k in hits {
            while let Some(&h) = self.levels[k].by_wme.get(&wme.id).and_then(|b| b.last()) {
                self.remove(k, h, cx.cs);
            }
        }
        // 2. Negative re-activation, deepest level first (see the module
        //    docs): live inputs blocked only by this WME start passing.
        for &k in hits.iter().rev() {
            if !self.levels[k].is_negative() {
                continue;
            }
            for h in self.left_inputs(k, wme) {
                if self.beta(k, h, wme, cx.eval) {
                    let tok = self.tok_mut(k, h);
                    tok.count -= 1;
                    if tok.count == 0 {
                        self.pass_through(k, h, cx);
                    }
                }
            }
        }
    }
}

/// Groups the endpoints of `entered` alpha nodes by rule, yielding each
/// rule's hit CE positions sorted ascending (the shallow-to-deep delivery
/// order the beta pass relies on).
fn hits_by_rule(alpha: &AlphaNetwork, entered: &[NodeId]) -> FxHashMap<RuleId, Vec<usize>> {
    let mut by_rule: FxHashMap<RuleId, Vec<usize>> = FxHashMap::default();
    for &nid in entered {
        for ep in alpha.endpoints(nid) {
            by_rule.entry(ep.rule).or_default().push(ep.ce as usize);
        }
    }
    for hits in by_rule.values_mut() {
        hits.sort_unstable();
    }
    by_rule
}

impl Matcher for Rete {
    fn add_wme(&mut self, wme: &Wme) {
        // The shared layer runs each distinct test list once and stores
        // the payload once; beta delivery fans out to the subscribers.
        let (wref, entered) = self.alpha.add(wme);
        let mut by_rule = hits_by_rule(&self.alpha, &entered);
        let cx = &mut Ctx {
            alpha: &self.alpha,
            cs: &mut self.cs,
            eval: &self.eval,
        };
        for net in &mut self.nets {
            if let Some(hits) = by_rule.remove(&net.rule) {
                net.deliver_add(&hits, wref, wme, cx);
            }
        }
    }

    fn remove_wme(&mut self, wme: &Wme) {
        let Some((payload, left)) = self.alpha.remove(wme.id) else {
            return; // never added — nothing can reference it
        };
        let mut by_rule = hits_by_rule(&self.alpha, &left);
        let cx = &mut Ctx {
            alpha: &self.alpha,
            cs: &mut self.cs,
            eval: &self.eval,
        };
        for net in &mut self.nets {
            if let Some(hits) = by_rule.remove(&net.rule) {
                net.deliver_remove(&hits, &payload, cx);
            }
        }
    }

    fn conflict_set(&mut self) -> &ConflictSet {
        &self.cs
    }

    fn drain_cs_events(&mut self) -> Option<Vec<CsEvent>> {
        self.cs.drain_journal_or_enable()
    }

    fn metrics(&self) -> crate::MatcherMetrics {
        let mut m = crate::MatcherMetrics {
            kind: "rete",
            rules: self.nets.len(),
            conflict_set: self.cs.len(),
            alpha_nodes: self.alpha.node_count(),
            alpha_subscriptions: self.alpha.subscription_count(),
            alpha_share_hits: self.alpha.share_hits(),
            ..Default::default()
        };
        let mut cs_by_rule: FxHashMap<u32, usize> = FxHashMap::default();
        for inst in self.cs.iter() {
            *cs_by_rule.entry(inst.rule.0).or_default() += 1;
        }
        for net in &self.nets {
            let mut work = cs_by_rule.get(&net.rule.0).copied().unwrap_or(0);
            for (k, level) in net.levels.iter().enumerate() {
                // Per-subscription accounting (a shared node counts once
                // per subscribing level), so `alpha_wmes`, per-rule work
                // and the imbalance signal keep their pre-sharing values
                // and auto-ccc decisions are unchanged.
                let members = self.alpha.members(level.node).len();
                m.alpha_wmes += members;
                m.beta_tokens += level.live();
                if level.is_negative() {
                    m.negative_counts += net.inputs(k);
                }
                work += members + level.live();
            }
            m.per_rule_work.push((net.rule.0, work));
        }
        m.per_rule_work.sort_unstable();
        m
    }

    fn replace_rules(
        &mut self,
        program: &Arc<Program>,
        remove: &[RuleId],
        add: &[RuleId],
        _wm: &WorkingMemory,
    ) -> bool {
        for &rid in remove {
            let mut i = 0;
            while i < self.nets.len() {
                if self.nets[i].rule != rid {
                    i += 1;
                    continue;
                }
                let net = self.nets.remove(i);
                // Release the shared subscriptions; nodes still used by
                // other rules (a split rule's unchanged CEs) survive with
                // their membership intact.
                for (k, level) in net.levels.iter().enumerate() {
                    self.alpha.unsubscribe_index(level.node, &level.slots);
                    self.alpha.unsubscribe(level.node, net.rule, k);
                }
            }
            let stale: Vec<InstKey> = self
                .cs
                .iter()
                .filter(|i| i.rule == rid)
                .map(|i| i.key())
                .collect();
            for k in stale {
                self.cs.remove(&k);
            }
        }
        // Recompile the evaluator against the new program before any net is
        // built (unchanged rules compile to identical code; surviving
        // alpha nodes keep their compiled test code untouched).
        self.eval = Evaluator::new(program.clone(), self.eval.mode());
        for &rid in add {
            // build_net batch-derives the new net's tokens from the shared
            // store — no per-WME replay of working memory.
            let net = build_net(program, rid, &mut self.alpha, &mut self.cs, &self.eval);
            self.nets.push(net);
        }
        // Net order is not semantically observable (the conflict set is a
        // set), but keep it sorted so metrics read deterministically.
        self.nets.sort_by_key(|n| n.rule);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parulel_core::WorkingMemory;
    use parulel_lang::compile;

    fn prog(src: &str) -> Arc<Program> {
        Arc::new(compile(src).unwrap())
    }

    #[test]
    fn join_add_and_remove() {
        let p = prog(
            "(literalize edge from to)
             (p hop (edge ^from <a> ^to <b>) (edge ^from <b> ^to <c>) --> (halt))",
        );
        let mut wm = WorkingMemory::new(&p.classes);
        let edge = p.classes.id_of(p.interner.intern("edge")).unwrap();
        let mut m = Rete::new(p.clone());
        let e1 = wm.insert(edge, vec![Value::Int(1), Value::Int(2)]);
        let e2 = wm.insert(edge, vec![Value::Int(2), Value::Int(3)]);
        m.add_wme(&e1);
        assert_eq!(m.conflict_set().len(), 0);
        m.add_wme(&e2);
        assert_eq!(m.conflict_set().len(), 1);
        let e3 = wm.insert(edge, vec![Value::Int(3), Value::Int(1)]);
        m.add_wme(&e3);
        assert_eq!(m.conflict_set().len(), 3); // 1-2-3, 2-3-1, 3-1-2
        m.remove_wme(&e2);
        assert_eq!(m.conflict_set().len(), 1); // only 3-1-2 survives
        m.remove_wme(&e3);
        assert_eq!(m.conflict_set().len(), 0);
    }

    #[test]
    fn negative_node_blocks_and_reactivates() {
        let p = prog(
            "(literalize task id)
             (literalize lock id)
             (p free (task ^id <t>) -(lock ^id <t>) --> (halt))",
        );
        let mut wm = WorkingMemory::new(&p.classes);
        let task = p.classes.id_of(p.interner.intern("task")).unwrap();
        let lock = p.classes.id_of(p.interner.intern("lock")).unwrap();
        let mut m = Rete::new(p.clone());
        let t = wm.insert(task, vec![Value::Int(7)]);
        m.add_wme(&t);
        assert_eq!(m.conflict_set().len(), 1);
        let l = wm.insert(lock, vec![Value::Int(7)]);
        m.add_wme(&l);
        assert_eq!(m.conflict_set().len(), 0);
        let l2 = wm.insert(lock, vec![Value::Int(7)]);
        m.add_wme(&l2);
        m.remove_wme(&l);
        assert_eq!(m.conflict_set().len(), 0, "second lock still blocks");
        m.remove_wme(&l2);
        assert_eq!(m.conflict_set().len(), 1, "last blocker gone");
    }

    #[test]
    fn leading_negative_ce() {
        let p = prog(
            "(literalize flag)
             (literalize item id)
             (p quiet -(flag) (item ^id <i>) --> (halt))",
        );
        let mut wm = WorkingMemory::new(&p.classes);
        let flag = p.classes.id_of(p.interner.intern("flag")).unwrap();
        let item = p.classes.id_of(p.interner.intern("item")).unwrap();
        let mut m = Rete::new(p.clone());
        let it = wm.insert(item, vec![Value::Int(1)]);
        m.add_wme(&it);
        assert_eq!(m.conflict_set().len(), 1);
        let f = wm.insert(flag, vec![]);
        m.add_wme(&f);
        assert_eq!(m.conflict_set().len(), 0);
        m.remove_wme(&f);
        assert_eq!(m.conflict_set().len(), 1);
    }

    #[test]
    fn anchored_tests_filter_joins() {
        let p = prog(
            "(literalize n v)
             (p asc (n ^v <a>) (n ^v <b>) (test (< <a> <b>)) --> (halt))",
        );
        let mut wm = WorkingMemory::new(&p.classes);
        let n = p.classes.id_of(p.interner.intern("n")).unwrap();
        let mut m = Rete::new(p.clone());
        for v in [3, 1, 2] {
            let w = wm.insert(n, vec![Value::Int(v)]);
            m.add_wme(&w);
        }
        // ascending pairs of distinct values: (1,2) (1,3) (2,3)
        assert_eq!(m.conflict_set().len(), 3);
    }

    #[test]
    fn seed_order_does_not_matter() {
        let p = prog(
            "(literalize e a b)
             (p r (e ^a <x> ^b <y>) (e ^a <y> ^b <x>) -(e ^a <x> ^b <x>) --> (halt))",
        );
        let e = p.classes.id_of(p.interner.intern("e")).unwrap();
        let mut wm = WorkingMemory::new(&p.classes);
        let wmes: Vec<Wme> = vec![
            wm.insert(e, vec![Value::Int(1), Value::Int(2)]),
            wm.insert(e, vec![Value::Int(2), Value::Int(1)]),
            wm.insert(e, vec![Value::Int(1), Value::Int(1)]),
            wm.insert(e, vec![Value::Int(3), Value::Int(3)]),
        ];
        // All 4! insertion orders must agree.
        let mut reference: Option<Vec<InstKey>> = None;
        let orders = permutations(&[0, 1, 2, 3]);
        for order in orders {
            let mut m = Rete::new(p.clone());
            for &i in &order {
                m.add_wme(&wmes[i]);
            }
            let keys = m.conflict_set().sorted_keys();
            match &reference {
                None => reference = Some(keys),
                Some(r) => assert_eq!(&keys, r, "order {order:?} diverged"),
            }
        }
    }

    fn permutations(items: &[usize]) -> Vec<Vec<usize>> {
        if items.len() <= 1 {
            return vec![items.to_vec()];
        }
        let mut out = Vec::new();
        for (i, &x) in items.iter().enumerate() {
            let mut rest = items.to_vec();
            rest.remove(i);
            for mut p in permutations(&rest) {
                p.insert(0, x);
                out.push(p);
            }
        }
        out
    }

    #[test]
    fn reactivation_cascade_into_fresh_negative_counts() {
        // Regression: removing one WME that blocks at TWO negative levels.
        // Re-activation at the shallow level cascades a *fresh* input
        // token into the deep level, whose count (computed after the
        // removal) must not be decremented again when the deep level's
        // own re-activation pass runs.
        let p = prog(
            "(literalize a x)
             (literalize b x)
             (literalize c x)
             (p r (a ^x <v>) -(b ^x <v>) (c ^x <v>) -(b ^x <v>) --> (halt))",
        );
        let a = p.classes.id_of(p.interner.intern("a")).unwrap();
        let b = p.classes.id_of(p.interner.intern("b")).unwrap();
        let c = p.classes.id_of(p.interner.intern("c")).unwrap();
        let mut wm = WorkingMemory::new(&p.classes);
        let mut m = Rete::new(p.clone());
        let wa = wm.insert(a, vec![Value::Int(1)]);
        let wc = wm.insert(c, vec![Value::Int(1)]);
        let wb = wm.insert(b, vec![Value::Int(1)]);
        for w in [&wa, &wc, &wb] {
            m.add_wme(w);
        }
        assert_eq!(m.conflict_set().len(), 0, "blocked by b");
        // Removing the blocker must re-activate through BOTH negative
        // levels without panicking or double-decrementing.
        m.remove_wme(&wb);
        assert_eq!(m.conflict_set().len(), 1);
        // And re-adding it must retract again. Both negative levels share
        // one alpha node here, so this also exercises the add-side
        // snapshot discipline.
        m.add_wme(&wb);
        assert_eq!(m.conflict_set().len(), 0);
    }

    #[test]
    fn join_across_int_and_float_values() {
        // Int(2) and Float(2.0) are matches_eq-equal; the hash join must
        // not lose the pair to differing key hashes.
        let p = prog(
            "(literalize a x)
             (literalize b y)
             (p r (a ^x <v>) (b ^y <v>) --> (halt))",
        );
        let a = p.classes.id_of(p.interner.intern("a")).unwrap();
        let b = p.classes.id_of(p.interner.intern("b")).unwrap();
        let mut wm = WorkingMemory::new(&p.classes);
        let mut m = Rete::new(p.clone());
        let w1 = wm.insert(a, vec![Value::Int(2)]);
        let w2 = wm.insert(b, vec![Value::Float(2.0)]);
        m.add_wme(&w1);
        m.add_wme(&w2);
        assert_eq!(m.conflict_set().len(), 1);
        m.remove_wme(&w2);
        assert_eq!(m.conflict_set().len(), 0);
    }

    #[test]
    fn add_then_remove_returns_to_empty_state() {
        let p = prog(
            "(literalize a x)
             (literalize b y)
             (p r (a ^x <v>) -(b ^y <v>) (a ^x { > 0 }) --> (halt))",
        );
        let a = p.classes.id_of(p.interner.intern("a")).unwrap();
        let b = p.classes.id_of(p.interner.intern("b")).unwrap();
        let mut wm = WorkingMemory::new(&p.classes);
        let mut m = Rete::new(p.clone());
        let w1 = wm.insert(a, vec![Value::Int(5)]);
        let w2 = wm.insert(a, vec![Value::Int(-1)]);
        let w3 = wm.insert(b, vec![Value::Int(5)]);
        for w in [&w1, &w2, &w3] {
            m.add_wme(w);
        }
        for w in [&w1, &w2, &w3] {
            m.remove_wme(w);
        }
        assert_eq!(m.conflict_set().len(), 0);
        assert_eq!(m.alpha.store_len(), 0, "arena did not drain");
        for net in &m.nets {
            assert!(net.root.children.is_empty(), "root kept children");
            for (k, level) in net.levels.iter().enumerate() {
                assert!(
                    m.alpha.members(level.node).is_empty(),
                    "level {k} node membership not empty"
                );
                assert_eq!(level.live(), 0, "level {k} tokens not empty");
                assert!(level.by_wme.is_empty(), "level {k} wme index leaked");
                // The only permanent entry is the root token registered as
                // level 0's input — everything else must drain.
                let entries: Vec<Tok> = level.left_index.values().flatten().copied().collect();
                let want = if k == 0 { vec![ROOT] } else { Vec::new() };
                assert_eq!(entries, want, "level {k} left index");
            }
        }
        m.check_invariants();
    }

    #[test]
    fn replace_rules_swap_matches_fresh_build() {
        let p = prog(
            "(literalize edge from to)
             (p hop (edge ^from <a> ^to <b>) (edge ^from <b> ^to <c>) --> (halt))",
        );
        let mut wm = WorkingMemory::new(&p.classes);
        let edge = p.classes.id_of(p.interner.intern("edge")).unwrap();
        for (a, b) in [(1, 2), (2, 3), (3, 1)] {
            wm.insert(edge, vec![Value::Int(a), Value::Int(b)]);
        }
        let mut m = Rete::new(p.clone());
        for w in wm.iter() {
            m.add_wme(w);
        }
        let want = m.conflict_set().sorted_keys();
        assert!(m.replace_rules(&p, &[RuleId(0)], &[RuleId(0)], &wm));
        assert_eq!(m.conflict_set().sorted_keys(), want);
        m.check_invariants();
    }

    #[test]
    fn identical_ces_share_alpha_nodes_across_rules() {
        // Three rules, all over class `n` with the same constant test on
        // one CE: with sharing, the network keeps one node per distinct
        // key and reports fan-out; without it, one node per subscription.
        let src = "(literalize n v w)
             (p r1 (n ^v 1 ^w <x>) (n ^v 1 ^w <y>) --> (halt))
             (p r2 (n ^v 1 ^w <x>) --> (halt))
             (p r3 (n ^v 2 ^w <x>) --> (halt))";
        let p = prog(src);
        let n = p.classes.id_of(p.interner.intern("n")).unwrap();
        let rules: Vec<RuleId> = (0..3).map(RuleId).collect();
        let mut shared = Rete::with_rules_sharing(p.clone(), rules.clone(), true);
        let mut solo = Rete::with_rules_sharing(p.clone(), rules, false);
        let mut wm = WorkingMemory::new(&p.classes);
        for v in [1, 1, 2] {
            let w = wm.insert(n, vec![Value::Int(v), Value::Int(0)]);
            shared.add_wme(&w);
            solo.add_wme(&w);
        }
        assert_eq!(
            shared.conflict_set().sorted_keys(),
            solo.conflict_set().sorted_keys(),
            "sharing must not change the conflict set"
        );
        let ms = shared.metrics();
        let mp = solo.metrics();
        assert_eq!(ms.alpha_subscriptions, 4, "4 (rule, CE) endpoints");
        assert_eq!(ms.alpha_nodes, 2, "deduped to 2 distinct keys");
        assert!(ms.alpha_share_hits > 0, "fan-out was recorded");
        assert_eq!(mp.alpha_nodes, 4, "baseline keeps one node each");
        assert_eq!(mp.alpha_share_hits, 0);
        assert_eq!(
            ms.alpha_wmes, mp.alpha_wmes,
            "per-subscription accounting is layout-independent"
        );
        shared.check_invariants();
        solo.check_invariants();
    }

    #[test]
    fn self_join_with_a_self_loop_in_one_batch() {
        // `(edge 3 3)` enters both levels of the self-join in the same
        // delivery: the level-1 join of the token it builds at level 0
        // already sees it, so level 1's own delivery must skip that input
        // rather than build `3-3 3-3` a second time.
        let p = prog(
            "(literalize edge from to)
             (p hop (edge ^from <a> ^to <b>) (edge ^from <b> ^to <c>) --> (halt))",
        );
        let edge = p.classes.id_of(p.interner.intern("edge")).unwrap();
        let mut wm = WorkingMemory::new(&p.classes);
        let wmes: Vec<Wme> = [(3, 3), (2, 3), (3, 4)]
            .iter()
            .map(|&(a, b)| wm.insert(edge, vec![Value::Int(a), Value::Int(b)]))
            .collect();
        let mut naive = crate::NaiveMatcher::new(p.clone());
        naive.apply(&[], &wmes);
        let want = naive.conflict_set().sorted_keys();
        // 3-3 3-3, 3-3 3-4, 2-3 3-3, 2-3 3-4
        assert_eq!(want.len(), 4);
        for order in permutations(&[0, 1, 2]) {
            let batch: Vec<Wme> = order.iter().map(|&i| wmes[i].clone()).collect();
            let mut m = Rete::new(p.clone());
            m.apply(&[], &batch);
            m.check_invariants();
            assert_eq!(m.conflict_set().sorted_keys(), want, "order {order:?}");
            assert_eq!(
                m.metrics().beta_tokens,
                3 + 4,
                "order {order:?}: duplicate tokens"
            );
        }
    }

    #[test]
    fn slab_slots_are_reused_under_churn() {
        let p = prog(
            "(literalize a x)
             (literalize b x)
             (literalize c x)
             (p r (a ^x <v>) -(b ^x <v>) (c ^x <v>) --> (halt))",
        );
        let class = |n: &str| p.classes.id_of(p.interner.intern(n)).unwrap();
        let mut wm = WorkingMemory::new(&p.classes);
        let mut wmes = Vec::new();
        for (name, vals) in [("a", 0..6), ("c", 0..6), ("b", 0..2), ("a", 3..6)] {
            for v in vals {
                wmes.push(wm.insert(class(name), vec![Value::Int(v)]));
            }
        }
        let mut m = Rete::new(p.clone());
        let live = |m: &Rete| -> Vec<usize> { m.nets[0].levels.iter().map(Level::live).collect() };
        let mut peak = vec![0; 3];
        let mut observe = |m: &Rete| {
            for (p, l) in peak.iter_mut().zip(live(m)) {
                *p = (*p).max(l);
            }
            peak.clone()
        };
        for _ in 0..200 {
            for w in &wmes {
                m.add_wme(w);
                observe(&m);
            }
            for w in &wmes {
                m.remove_wme(w);
                observe(&m);
            }
            let peak = observe(&m);
            for (k, level) in m.nets[0].levels.iter().enumerate() {
                assert!(
                    level.slab.len() <= peak[k],
                    "level {k} slab grew past its peak"
                );
            }
            assert_eq!(live(&m), [0, 0, 0]);
            m.check_invariants();
        }
        assert!(peak.iter().all(|&n| n > 0), "churn never reached a level");
        m.apply(&[], &wmes);
        m.check_invariants();
        let mut fresh = Rete::new(p.clone());
        fresh.apply(&[], &wmes);
        assert_eq!(
            m.conflict_set().sorted_keys(),
            fresh.conflict_set().sorted_keys()
        );
        assert_eq!(m.metrics(), fresh.metrics());
    }
}
