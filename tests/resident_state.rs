//! What a serving process keeps for its lifetime, checked against plain
//! references:
//!
//! - the result cache packs each entry's rounds into one byte string, and
//!   `get` and `lookup` must decode every answer exactly as it was
//!   inserted: single and multi-round answers, sorted and unsorted ids
//!   from 0 to `u32::MAX`, empty lists, removal orders, every bit of the
//!   density modularity and the timing, and errors;
//! - an `IdSpace` indexes original ids with a direct table or a hash map,
//!   and must map dense, sparse and above-2^32 ids exactly like a
//!   `HashMap` built from the same ids, also after `add` updates create
//!   new ones, naming the first missing id of a query.

use dmcs::core::{SearchError, SearchResult};
use dmcs::engine::cache::{fingerprint, CacheKey, CachedAnswer, Lookup, ResponseCache};
use dmcs::engine::ops::{Action, IdSpace, Mutation};
use dmcs::engine::{AlgoSpec, Engine, EngineError};
use dmcs::graph::{GraphBuilder, GraphError, NodeId, Snapshot};
use proptest::prelude::*;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

/// SplitMix64, seeded by the proptest case: builds the nested values the
/// proptest shim has no strategies for.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Clone>(&mut self, from: &[T]) -> T {
        from[self.below(from.len() as u64) as usize].clone()
    }
}

/// An id list: empty or up to 300 ids drawn near 0, near `u32::MAX`, in
/// a small range or anywhere, then sorted and distinct (as a served
/// community is), reversed, or left as drawn with its repeats.
fn ids(rng: &mut Mix) -> Vec<NodeId> {
    let len = rng.pick(&[0, 0, 1, 2, 7, 40, 300]);
    let mut ids: Vec<NodeId> = (0..len)
        .map(|_| match rng.below(4) {
            0 => rng.below(64) as NodeId,
            1 => NodeId::MAX - rng.below(64) as NodeId,
            2 => rng.below(1 << 14) as NodeId,
            _ => rng.next() as NodeId,
        })
        .collect();
    match rng.below(3) {
        0 => {
            ids.sort_unstable();
            ids.dedup();
        }
        1 => ids.sort_unstable_by(|a, b| b.cmp(a)),
        _ => {}
    }
    ids
}

/// A float from the edges of `f64` (signed zeros, a subnormal, the
/// extremes, NaN and infinity) or from random bits.
fn float(rng: &mut Mix) -> f64 {
    match rng.below(3) {
        0 => rng.pick(&[
            0.0,
            -0.0,
            5e-324,
            f64::MIN_POSITIVE,
            f64::MAX,
            -1.5,
            f64::NAN,
            f64::INFINITY,
        ]),
        1 => rng.below(1000) as f64 / 997.0,
        _ => f64::from_bits(rng.next()),
    }
}

fn answer(rng: &mut Mix) -> CachedAnswer {
    let result = match rng.below(5) {
        0 => Err(rng.pick(&[
            SearchError::EmptyQuery,
            SearchError::Graph(GraphError::NodeOutOfRange(NodeId::MAX)),
            SearchError::Graph(GraphError::QueryDisconnected),
            SearchError::Graph(GraphError::NoFeasibleSolution("no 3-truss holds the query")),
        ])),
        _ => {
            let rounds = rng.pick(&[0, 1, 1, 1, 2, 3]);
            Ok((0..rounds)
                .map(|_| SearchResult {
                    community: ids(rng),
                    density_modularity: float(rng),
                    removal_order: ids(rng),
                    iterations: rng.pick(&[0, 1, 127, 128, 16_384, usize::MAX]),
                })
                .collect())
        }
    };
    CachedAnswer {
        algo: rng.pick(&["FPA", "W-NCA"]),
        result,
        seconds: float(rng),
    }
}

/// An answer with every float as its bits, so equality is bit equality.
type Shape = (
    &'static str,
    Result<Vec<(Vec<NodeId>, u64, Vec<NodeId>, usize)>, SearchError>,
    u64,
);

fn shape(answer: &CachedAnswer) -> Shape {
    let rounds = answer.result.as_ref().map(|rounds| {
        rounds
            .iter()
            .map(|r| {
                let dm = r.density_modularity.to_bits();
                (
                    r.community.clone(),
                    dm,
                    r.removal_order.clone(),
                    r.iterations,
                )
            })
            .collect()
    });
    (
        answer.algo,
        rounds.map_err(Clone::clone),
        answer.seconds.to_bits(),
    )
}

/// An original id: from a dense block, a sparse range, just above 2^32,
/// or anywhere in `u64` (`u64::MAX` included).
fn raw_id(rng: &mut Mix, n: u64) -> u64 {
    match rng.below(5) {
        0 | 1 => rng.below(2 * n),
        2 => rng.below(1 << 24),
        3 => (1 << 32) + rng.below(64),
        _ => {
            let any = rng.next();
            rng.pick(&[u64::MAX, u64::MAX - 1, any])
        }
    }
}

/// Give `raw` the next dense id unless it has one: the reference map.
fn note(reference: &mut HashMap<u64, NodeId>, original: &mut Vec<u64>, raw: u64) {
    if let Entry::Vacant(slot) = reference.entry(raw) {
        slot.insert(original.len() as NodeId);
        original.push(raw);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn the_cache_returns_every_answer_as_it_was_inserted(seed in 0u64..u64::MAX) {
        let mut rng = Mix(seed);
        let snap = Snapshot::freeze(GraphBuilder::from_edges(2, &[(0, 1)]));
        let spec = Arc::new(AlgoSpec::new("fpa"));
        let key = |i: usize| CacheKey::for_top_k(Arc::clone(&spec), &[i as NodeId], &snap, i % 4);
        let cache = ResponseCache::new(64);
        let answers: Vec<CachedAnswer> = (0..12).map(|_| answer(&mut rng)).collect();
        for (i, answer) in answers.iter().enumerate() {
            cache.insert(key(i), answer.clone(), fingerprint(&snap, None));
        }
        prop_assert_eq!(cache.len(), answers.len());
        for (i, answer) in answers.iter().enumerate() {
            let got = cache.get(&key(i), &snap);
            prop_assert!(got.is_some(), "entry {} missing", i);
            prop_assert_eq!(shape(&got.unwrap()), shape(answer));
            // The daemon's lookup decodes the same answer while the
            // entry keeps no reply.
            let mut out = String::new();
            match cache.lookup(&key(i), &snap, 1, &mut out) {
                Lookup::Hit(got, Some(_)) => prop_assert_eq!(shape(&got), shape(answer)),
                other => prop_assert!(false, "entry {}: {:?}", i, other),
            }
        }
    }

    #[test]
    fn id_spaces_map_like_a_hash_map(seed in 0u64..u64::MAX) {
        let mut rng = Mix(seed);
        let n = rng.pick(&[1u64, 3, 50, 5000]);
        let mut reference: HashMap<u64, NodeId> = HashMap::new();
        let mut original = Vec::new();
        while original.len() < n as usize {
            note(&mut reference, &mut original, raw_id(&mut rng, n));
        }
        let engine = Engine::from_graph(GraphBuilder::new(n as usize).build());
        let ids = IdSpace::new(original.clone());

        // `add`s between known and fresh ids: a fresh id takes the next
        // dense id, the first endpoint before the second, even when the
        // edge already exists.
        for line in 1..=24 {
            let endpoint = |rng: &mut Mix| match rng.below(2) {
                0 => original[rng.below(original.len() as u64) as usize],
                _ => raw_id(rng, n),
            };
            let (u, v) = (endpoint(&mut rng), endpoint(&mut rng));
            if u == v {
                continue;
            }
            let add = Mutation::new(Action::Add(None), u, v, line).unwrap();
            let _ = add.apply(&engine, &ids, line);
            for raw in [u, v] {
                note(&mut reference, &mut original, raw);
            }
        }
        prop_assert_eq!(engine.store().n(), original.len());
        prop_assert_eq!(ids.with_original(<[u64]>::to_vec), original.clone());
        for (&raw, &dense) in &reference {
            prop_assert_eq!(ids.map_query(&[raw]).ok(), Some(vec![dense]), "id {}", raw);
        }

        // A query naming ids the graph lacks fails on the first of them.
        let missing: Vec<u64> = (0..64)
            .map(|_| raw_id(&mut rng, n))
            .filter(|raw| !reference.contains_key(raw))
            .take(2)
            .collect();
        if let [first, ..] = missing[..] {
            let mut query = vec![original[0]];
            query.extend(&missing);
            let err = ids.map_query(&query).unwrap_err();
            prop_assert!(
                matches!(err, EngineError::UnknownNode { id, .. } if id == first),
                "{:?} for {:?}",
                err,
                query
            );
        }
    }
}
