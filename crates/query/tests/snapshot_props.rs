//! Property tests for the snapshot container format and the zero-copy
//! storage tier.
//!
//! Two contracts under random worlds and random corruption:
//!
//! * **Robustness** — truncated or misaligned container bytes always come
//!   back as a typed [`CodecError`], never a panic; a flipped bit is a
//!   typed error too, or — in payload words, which mounting does not read
//!   — costs exactly the entry it touched once the import is verified.
//!   Never a silently-wrong snapshot, never a wrong answer.
//! * **Transparency** — an engine warm-started from an arena image (its
//!   cache entries are views into one shared buffer) answers every query,
//!   materialized and lazy anchored alike, bit-identically to an engine whose
//!   matrices are ordinary owned storage. The storage tier must be
//!   invisible to the arithmetic.

use std::sync::Arc;

use hin_core::{Hin, HinBuilder};
use hin_query::{CacheConfig, CacheSnapshot, Engine, ExecPolicy};
use proptest::prelude::*;

/// A random bibliographic world (papers, authors, venues, small integer
/// weights) with every node pre-interned so anchors always resolve.
#[derive(Clone, Debug)]
struct World {
    n_papers: usize,
    n_authors: usize,
    n_venues: usize,
    pa: Vec<(usize, usize, u32)>,
    pv: Vec<(usize, usize, u32)>,
}

impl World {
    fn build(&self) -> Arc<Hin> {
        let mut b = HinBuilder::new();
        let paper = b.add_type("paper");
        let author = b.add_type("author");
        let venue = b.add_type("venue");
        let pa = b.add_relation("written_by", paper, author);
        let pv = b.add_relation("published_in", paper, venue);
        for p in 0..self.n_papers {
            b.intern(paper, &format!("p{p}"));
        }
        for a in 0..self.n_authors {
            b.intern(author, &format!("a{a}"));
        }
        for v in 0..self.n_venues {
            b.intern(venue, &format!("v{v}"));
        }
        for &(p, a, w) in &self.pa {
            b.link(pa, &format!("p{p}"), &format!("a{a}"), w as f64)
                .unwrap();
        }
        for &(p, v, w) in &self.pv {
            b.link(pv, &format!("p{p}"), &format!("v{v}"), w as f64)
                .unwrap();
        }
        Arc::new(b.build())
    }
}

fn worlds() -> impl Strategy<Value = World> {
    (
        3usize..14,
        2usize..9,
        1usize..5,
        prop::collection::vec((0usize..16, 0usize..10, 1u32..4), 1..56),
        prop::collection::vec((0usize..16, 0usize..5, 1u32..4), 1..40),
    )
        .prop_map(|(n_papers, n_authors, n_venues, pa, pv)| World {
            n_papers,
            n_authors,
            n_venues,
            pa: pa
                .into_iter()
                .map(|(p, a, w)| (p % n_papers, a % n_authors, w))
                .collect(),
            pv: pv
                .into_iter()
                .map(|(p, v, w)| (p % n_papers, v % n_venues, w))
                .collect(),
        })
}

/// Materializing queries that leave a multi-entry cache behind on the
/// donor (full spans plus their cached sub-products).
fn warming_queries() -> [&'static str; 3] {
    [
        "pathsim author-paper-author from a0",
        "pathsim author-paper-venue-paper-author from a1",
        "rank venue-paper-author limit 5",
    ]
}

/// Donor engine's fingerprinted snapshot after a warming workload.
fn donor_snapshot(hin: &Arc<Hin>) -> CacheSnapshot {
    let donor = Engine::with_config(
        Arc::clone(hin),
        CacheConfig::default(),
        ExecPolicy::promote_after(0),
    );
    for q in warming_queries() {
        donor.execute(q).expect("donor warming query");
    }
    donor.snapshot(None)
}

/// Serialize with the container writer.
fn v2_bytes(snap: &CacheSnapshot) -> Vec<u8> {
    let mut bytes = Vec::new();
    snap.to_writer(&mut bytes).expect("vec writes cannot fail");
    bytes
}

/// Decoding `bytes` must return `Err` — and must not panic. The panic
/// guard is the test harness itself: any panic fails the property.
fn assert_rejected(bytes: &[u8], context: &str) -> Result<(), String> {
    prop_assert!(
        CacheSnapshot::from_bytes(bytes).is_err(),
        "corrupt container decoded successfully: {context}"
    );
    Ok(())
}

/// Bit-identity: same names in the same order, scores equal by bit
/// pattern (`total_cmp`-strict, so `-0.0` vs `0.0` cannot slide).
fn assert_bit_identical(
    got: &hin_query::QueryOutput,
    want: &hin_query::QueryOutput,
    context: &str,
) -> Result<(), String> {
    prop_assert_eq!(&got.object_type, &want.object_type, "{}", context);
    prop_assert_eq!(got.items.len(), want.items.len(), "{}", context);
    for (i, ((gn, gs), (wn, ws))) in got.items.iter().zip(&want.items).enumerate() {
        prop_assert_eq!(gn, wn, "{}: item {} name", context, i);
        prop_assert_eq!(
            gs.to_bits(),
            ws.to_bits(),
            "{}: item {} score {} vs {}",
            context,
            i,
            gs,
            ws
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// An image round-trips its structure, and the restore is the
    /// zero-copy one the format promises: every entry a view, one arena.
    #[test]
    fn v2_round_trip_preserves_structure(world in worlds()) {
        let hin = world.build();
        let snap = donor_snapshot(&hin);
        prop_assert!(!snap.is_empty(), "warming must populate the cache");
        let back = CacheSnapshot::from_bytes(&v2_bytes(&snap))
            .expect("round trip");
        prop_assert_eq!(back.len(), snap.len());
        prop_assert_eq!(back.keys(), snap.keys());
        prop_assert_eq!(back.bytes(), snap.bytes());
        prop_assert_eq!(back.fingerprint(), snap.fingerprint());
        if hin_linalg::arena::ZERO_COPY {
            prop_assert_eq!(back.view_backed(), back.len());
            prop_assert_eq!(back.arena_count(), 1);
        }
    }

    /// Truncation at any sampled point is a typed error — never a panic,
    /// never a partial snapshot.
    #[test]
    fn truncation_is_always_rejected(world in worlds(),
                                     cuts in prop::collection::vec(0usize..usize::MAX, 16)) {
        let hin = world.build();
        let snap = donor_snapshot(&hin);
        let bytes = v2_bytes(&snap);
        // the boundary cuts every container must survive…
        for cut in [0, 4, 8, bytes.len() / 2, bytes.len() - 9, bytes.len() - 1] {
            assert_rejected(&bytes[..cut], &format!("cut at {cut}"))?;
        }
        // …plus a random sample
        for &cut in &cuts {
            let cut = cut % bytes.len();
            assert_rejected(&bytes[..cut], &format!("cut at {cut}"))?;
        }
    }

    /// No single bit flip, anywhere in the image, is ever served. Either
    /// it is a decode error (the seal, structural validation, the
    /// zero-padding rule — the property doesn't care which), or it sits in
    /// payload words and the image mounts: then import plus verification
    /// drops the touched entry, only it, says so, and every answer still
    /// equals the reference. The name is from when one whole-file hash
    /// rejected both kinds at decode.
    #[test]
    fn bit_flips_are_always_rejected(world in worlds(),
                                     flips in prop::collection::vec((0usize..usize::MAX, 0u8..8), 24)) {
        let hin = world.build();
        let snap = donor_snapshot(&hin);
        let bytes = v2_bytes(&snap);
        let heap_off = u64::from_le_bytes(bytes[40..48].try_into().expect("8 bytes")) as usize;
        let reference = Engine::from_arc(Arc::clone(&hin));
        let queries: Vec<String> = (0..world.n_authors)
            .map(|a| format!("pathsim author-paper-venue-paper-author from a{a}"))
            .chain(warming_queries().map(String::from))
            .collect();
        let mut mounted_some = 0;
        for &(pos, bit) in &flips {
            let pos = pos % bytes.len();
            let mut bad = bytes.clone();
            bad[pos] ^= 1 << bit;
            let Ok(mounted) = CacheSnapshot::from_bytes(&bad) else {
                continue;
            };
            prop_assert!(pos >= heap_off, "a flipped metadata byte ({}) mounted", pos);
            mounted_some += 1;
            let engine = Engine::with_config(
                Arc::clone(&hin), CacheConfig::default(), ExecPolicy::promote_after(0));
            let report = engine.restore(&mounted);
            prop_assert_eq!((report.loaded as usize, report.rejected), (snap.len(), 0));
            engine.verify_restored();
            let cache = engine.cache();
            prop_assert_eq!(cache.stats().lazy_pending, 0);
            prop_assert_eq!(cache.stats().lazy_verify_failures, 1, "byte {} bit {}", pos, bit);
            prop_assert_eq!(cache.stats().len + 1, snap.len(), "the touched entry is gone");
            for q in &queries {
                let want = reference.execute(q).expect("reference execution");
                let got = engine.execute(q).expect("execution after a dropped entry");
                assert_bit_identical(&got, &want, &format!("{q} [byte {pos} bit {bit}]"))?;
            }
        }
        // the heap is most of an image: a batch of flips that never lands
        // in one would leave the second half of the property unexercised
        prop_assert!(mounted_some > 0 || bytes.len() < 4 * heap_off);
    }

    /// Misaligned images — the stream shifted by leading junk or a lost
    /// prefix — are rejected up front, not misparsed.
    #[test]
    fn misaligned_images_are_rejected(world in worlds(), shift in 1usize..8) {
        let hin = world.build();
        let snap = donor_snapshot(&hin);
        let bytes = v2_bytes(&snap);
        let mut shifted = vec![0xAAu8; shift];
        shifted.extend_from_slice(&bytes);
        assert_rejected(&shifted, &format!("shifted right by {shift}"))?;
        assert_rejected(&bytes[shift..], &format!("shifted left by {shift}"))?;
    }

    /// The storage tier is invisible to query arithmetic: an engine warm-
    /// started from an arena image (view-backed cache entries) answers
    /// bit-identically to an all-owned engine — reads of restored spans
    /// under `promote_after(0)` and lazy anchored propagation alike.
    #[test]
    fn arena_backed_engine_matches_owned_engine(world in worlds()) {
        let hin = world.build();
        let owned = Engine::with_config(
            Arc::clone(&hin),
            CacheConfig::default(),
            ExecPolicy::promote_after(0),
        );
        let arena_snap =
            CacheSnapshot::from_bytes(&v2_bytes(&donor_snapshot(&hin)))
                .expect("round trip");

        let mut queries = Vec::new();
        for a in 0..world.n_authors {
            queries.push(format!("pathsim author-paper-author from a{a}"));
            queries.push(format!("pathsim author-paper-venue-paper-author from a{a}"));
            queries.push(format!("pathcount author-paper-venue from a{a}"));
        }
        queries.push("rank venue-paper-author limit 10".to_string());

        for (policy, mode) in [
            (ExecPolicy::promote_after(0), "materializing"),
            (ExecPolicy::promote_after(u32::MAX), "lazy"),
        ] {
            let warm = Engine::with_config(Arc::clone(&hin), CacheConfig::default(), policy);
            let report = warm.restore(&arena_snap);
            prop_assert_eq!(report.rejected, 0, "same dataset must restore fully");
            if hin_linalg::arena::ZERO_COPY {
                prop_assert_eq!(
                    report.view_backed, report.loaded,
                    "an image restore admits views, not heap copies"
                );
            }
            for q in &queries {
                let want = owned.execute(q).expect("owned execution");
                let got = warm.execute(q).expect("arena-backed execution");
                assert_bit_identical(&got, &want, &format!("{q} [{mode}]"))?;
            }
        }
    }
}
