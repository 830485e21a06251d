//! The arena's intern table against a reference hash-cons kept here, and
//! the history-independence of the cached structural hash.
//!
//! The arena stores bare ids in an open-addressing table keyed by a cached
//! per-node hash; nothing in its public surface shows the table, so these
//! tests drive it the only way a caller can — through the smart
//! constructors — and compare every returned id with a model that is
//! obviously right: a `std` `HashMap` from owned keys to ids.

use std::collections::HashMap;

use benchkit::TestRng;
use uprov_core::{Atom, BinOp, ExprArena, Node, NodeId};

const OPS: [BinOp; 4] = [BinOp::PlusI, BinOp::Minus, BinOp::PlusM, BinOp::DotM];

/// An owned node: what the arena's [`Node`] view borrows, by raw id.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Key {
    Zero,
    Atom(usize),
    Bin(BinOp, u32, u32),
    Sum(Vec<u32>),
    Counted(BinOp, u32, Vec<(u32, u32)>),
}

fn raw(id: NodeId) -> u32 {
    id.index() as u32
}

fn key_of(node: Node<'_>) -> Key {
    match node {
        Node::Zero => Key::Zero,
        Node::Atom(a) => Key::Atom(a.index()),
        Node::Bin(op, a, b) => Key::Bin(op, raw(a), raw(b)),
        Node::Sum(ts) => Key::Sum(ts.iter().map(|&t| raw(t)).collect()),
        Node::Counted(op, h, es) => {
            Key::Counted(op, raw(h), es.iter().map(|&(e, m)| (raw(e), m)).collect())
        }
    }
}

/// The reference: ids are handed out densely in first-seen order, and the
/// smart constructors' canonicalization is restated over owned keys.
#[derive(Clone)]
struct Model {
    keys: Vec<Key>,
    ids: HashMap<Key, u32>,
}

impl Model {
    fn new() -> Self {
        Model {
            keys: vec![Key::Zero],
            ids: HashMap::from([(Key::Zero, 0)]),
        }
    }

    fn intern(&mut self, key: Key) -> u32 {
        if let Some(&id) = self.ids.get(&key) {
            return id;
        }
        let id = self.keys.len() as u32;
        self.keys.push(key.clone());
        self.ids.insert(key, id);
        id
    }

    fn bin(&mut self, op: BinOp, a: u32, b: u32) -> u32 {
        match (op, a, b) {
            (BinOp::DotM, 0, _) | (BinOp::DotM, _, 0) | (BinOp::Minus, 0, _) => 0,
            (_, _, 0) => a,
            (BinOp::PlusI | BinOp::PlusM, 0, _) => b,
            _ => self.intern(Key::Bin(op, a, b)),
        }
    }

    fn sum(&mut self, terms: &[u32]) -> u32 {
        let mut flat = Vec::new();
        for &t in terms {
            match &self.keys[t as usize] {
                Key::Zero => {}
                Key::Sum(inner) => flat.extend_from_slice(inner),
                _ => flat.push(t),
            }
        }
        match flat.len() {
            0 => 0,
            1 => flat[0],
            _ => self.intern(Key::Sum(flat)),
        }
    }

    /// Only for heads [`is_plain_head`](Self::is_plain_head) accepts, so
    /// the head-unpacking half of `ExprArena::counted` stays out of the
    /// model (the normalizer's own tests cover it).
    fn counted(&mut self, op: BinOp, head: u32, entries: &[(u32, u32)]) -> u32 {
        let mut merged: Vec<(u32, u32)> = Vec::new();
        let mut sorted: Vec<(u32, u32)> = entries
            .iter()
            .copied()
            .filter(|&(e, m)| e != 0 && m > 0)
            .collect();
        sorted.sort_unstable_by_key(|&(e, _)| e);
        for (e, m) in sorted {
            match merged.last_mut() {
                Some(last) if last.0 == e => last.1 = last.1.saturating_add(m),
                _ => merged.push((e, m)),
            }
        }
        match merged.iter().map(|&(_, m)| u64::from(m)).sum::<u64>() {
            0 => head,
            1 => self.intern(Key::Bin(op, head, merged[0].0)),
            _ => self.intern(Key::Counted(op, head, merged)),
        }
    }

    fn is_plain_head(&self, op: BinOp, id: u32) -> bool {
        match &self.keys[id as usize] {
            Key::Zero => false,
            Key::Bin(o, ..) | Key::Counted(o, ..) => *o != op,
            _ => true,
        }
    }
}

/// One smart-constructor call, replayable.
#[derive(Debug, Clone)]
enum Call {
    Atom(usize),
    Bin(BinOp, u32, u32),
    Sum(Vec<u32>),
    Counted(BinOp, u32, Vec<(u32, u32)>),
}

/// Issues `call` to the arena and to the model; they must agree on the id
/// and on what sits behind it.
fn apply(call: &Call, ar: &mut ExprArena, model: &mut Model) -> u32 {
    let id = NodeId::from_index;
    let (got, want) = match call {
        Call::Atom(a) => (ar.atom(Atom::from_index(*a)), model.intern(Key::Atom(*a))),
        Call::Bin(op, a, b) => (
            ar.bin(*op, id(*a as usize), id(*b as usize)),
            model.bin(*op, *a, *b),
        ),
        Call::Sum(ts) => (ar.sum(ts.iter().map(|&t| id(t as usize))), model.sum(ts)),
        Call::Counted(op, h, es) => (
            ar.counted(
                *op,
                id(*h as usize),
                es.iter().map(|&(e, m)| (id(e as usize), m)),
            ),
            model.counted(*op, *h, es),
        ),
    };
    assert_eq!(raw(got), want, "{call:?}");
    assert_eq!(ar.len(), model.keys.len(), "{call:?}: ids stay dense");
    assert_eq!(key_of(ar.node(got)), model.keys[want as usize], "{call:?}");
    want
}

/// A random call over the ids that exist: half the operands come from the
/// newest 64 ids (fresh structure, deep DAGs), half from anywhere (`0`
/// included, so the zero axioms fire).
fn random_call(rng: &mut TestRng, model: &Model) -> Call {
    let len = model.keys.len();
    let pick = |rng: &mut TestRng| -> u32 {
        if rng.coin() {
            (len - 1 - rng.below(len.min(64))) as u32
        } else {
            rng.below(len) as u32
        }
    };
    match rng.below(10) {
        0 => Call::Atom(rng.below(48)),
        1..=5 => Call::Bin(OPS[rng.below(4)], pick(rng), pick(rng)),
        6 | 7 => Call::Sum((0..2 + rng.below(4)).map(|_| pick(rng)).collect()),
        _ => {
            let op = if rng.coin() {
                BinOp::PlusI
            } else {
                BinOp::PlusM
            };
            let head = (0..8)
                .map(|_| pick(rng))
                .find(|&h| model.is_plain_head(op, h));
            let Some(head) = head else {
                return Call::Atom(rng.below(48));
            };
            let entries = (0..1 + rng.below(4))
                .map(|_| (pick(rng), rng.below(4) as u32))
                .collect();
            Call::Counted(op, head, entries)
        }
    }
}

/// Runs `steps` calls: three in four new, one in four a repeat of an
/// earlier call (which must land on the id it got the first time, however
/// often the table grew in between).
fn run(
    rng: &mut TestRng,
    steps: usize,
    ar: &mut ExprArena,
    model: &mut Model,
    log: &mut Vec<(Call, u32)>,
) {
    for _ in 0..steps {
        if !log.is_empty() && rng.below(4) == 0 {
            let (call, first) = log[rng.below(log.len())].clone();
            assert_eq!(apply(&call, ar, model), first, "{call:?}: re-interned");
        } else {
            let call = random_call(rng, model);
            let id = apply(&call, ar, model);
            log.push((call, id));
        }
    }
}

#[test]
fn every_constructor_call_gets_the_reference_id() {
    for seed in 1..=3u64 {
        let mut rng = TestRng::new(seed);
        let (mut ar, mut model, mut log) = (ExprArena::new(), Model::new(), Vec::new());
        run(&mut rng, 4_000, &mut ar, &mut model, &mut log);
        // A fresh arena starts at 8 slots and doubles past load 3/4:
        // 1 500 nodes are eight growths.
        assert!(ar.len() > 1_500, "seed {seed}: only {} nodes", ar.len());

        // A clone shares nothing: both sides keep interning, each against
        // its own copy of the model, over different streams.
        let (mut ar2, mut model2, mut log2) = (ar.clone(), model.clone(), log.clone());
        let shared = log.len();
        run(
            &mut TestRng::new(seed ^ 0xA),
            3_000,
            &mut ar,
            &mut model,
            &mut log,
        );
        run(
            &mut TestRng::new(seed ^ 0xB),
            3_000,
            &mut ar2,
            &mut model2,
            &mut log2,
        );
        assert_ne!(model.keys, model2.keys, "seed {seed}: the streams diverged");
        // And everything interned before the split is still found on both
        // sides, at its original id.
        for (call, first) in &log[..shared] {
            assert_eq!(apply(call, &mut ar, &mut model), *first);
            assert_eq!(apply(call, &mut ar2, &mut model2), *first);
        }
    }
}

/// An expression as a tree, independent of any arena.
#[derive(Debug, Clone)]
enum Tree {
    Atom(usize),
    Bin(BinOp, Box<Tree>, Box<Tree>),
    Sum(Vec<Tree>),
    Counted(BinOp, Box<Tree>, Vec<(Tree, u32)>),
}

fn random_tree(rng: &mut TestRng, depth: usize) -> Tree {
    if depth == 0 || rng.below(5) == 0 {
        return Tree::Atom(rng.below(6));
    }
    let sub = |rng: &mut TestRng| random_tree(rng, depth - 1);
    match rng.below(8) {
        0..=4 => Tree::Bin(OPS[rng.below(4)], Box::new(sub(rng)), Box::new(sub(rng))),
        5 | 6 => Tree::Sum((0..2 + rng.below(3)).map(|_| sub(rng)).collect()),
        _ => Tree::Counted(
            if rng.coin() {
                BinOp::PlusI
            } else {
                BinOp::PlusM
            },
            Box::new(sub(rng)),
            (0..1 + rng.below(3))
                .map(|_| (sub(rng), 1 + rng.below(3) as u32))
                .collect(),
        ),
    }
}

/// Interns `tree` through the smart constructors; `rev` visits children
/// right to left, so the same tree assigns its ids in another order.
fn build(ar: &mut ExprArena, tree: &Tree, rev: bool) -> NodeId {
    let children = |ar: &mut ExprArena, subs: Vec<&Tree>| -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = if rev {
            subs.iter().rev().map(|t| build(ar, t, rev)).collect()
        } else {
            subs.iter().map(|t| build(ar, t, rev)).collect()
        };
        if rev {
            ids.reverse();
        }
        ids
    };
    match tree {
        Tree::Atom(a) => ar.atom(Atom::from_index(*a)),
        Tree::Bin(op, a, b) => {
            let ids = children(ar, vec![a, b]);
            ar.bin(*op, ids[0], ids[1])
        }
        Tree::Sum(ts) => {
            let ids = children(ar, ts.iter().collect());
            ar.sum(ids)
        }
        Tree::Counted(op, head, es) => {
            let mut subs = vec![&**head];
            subs.extend(es.iter().map(|(e, _)| e));
            let ids = children(ar, subs);
            let entries: Vec<(NodeId, u32)> = ids[1..]
                .iter()
                .zip(es)
                .map(|(&e, &(_, m))| (e, m))
                .collect();
            ar.counted(*op, ids[0], entries)
        }
    }
}

#[test]
fn structural_hash_ignores_interning_order() {
    let mut rng = TestRng::new(7);
    let trees: Vec<Tree> = (0..300).map(|_| random_tree(&mut rng, 5)).collect();

    // Arena A: in order, children left to right. Arena B: unrelated nodes
    // first, then the trees last to first, children right to left.
    let mut a = ExprArena::new();
    let in_a: Vec<NodeId> = trees.iter().map(|t| build(&mut a, t, false)).collect();
    let mut b = ExprArena::new();
    for i in 100..140 {
        let x = b.atom(Atom::from_index(i));
        let y = b.atom(Atom::from_index(i + 1));
        b.dot_m(x, y);
    }
    let mut in_b: Vec<NodeId> = trees.iter().rev().map(|t| build(&mut b, t, true)).collect();
    in_b.reverse();

    let mut moved = 0;
    for ((tree, &ia), &ib) in trees.iter().zip(&in_a).zip(&in_b) {
        assert_eq!(
            a.structural_hash(ia),
            b.structural_hash(ib),
            "{tree:?}: ids {ia:?} / {ib:?}"
        );
        moved += usize::from(ia != ib);
    }
    assert!(moved > 250, "only {moved} of 300 roots changed id");
    // Within one arena the hash separates what the ids separate.
    let mut seen: HashMap<u64, NodeId> = HashMap::new();
    for id in (1..a.len()).map(NodeId::from_index) {
        if let Some(other) = seen.insert(a.structural_hash(id), id) {
            panic!("{:?} and {:?} share a hash", a.node(other), a.node(id));
        }
    }
}
