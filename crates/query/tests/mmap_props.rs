//! Property tests for the one file restore path, [`CacheSnapshot::open`].
//!
//! Three contracts under random worlds and random corruption:
//!
//! * **Parity** — an engine warm-started from a mapped checkpoint file
//!   answers pathsim/pathcount/rank bit-identically to an engine
//!   warm-started from a heap copy of the same bytes
//!   ([`CacheSnapshot::from_bytes`]). Demand paging must be invisible to
//!   the arithmetic.
//! * **No flip is ever served** — truncating or bit-flipping the
//!   checkpoint file never panics and never mounts differently through the
//!   map than from memory. Damage to the metadata, the structure or the
//!   padding is a decode error; damage to payload words, which mounting
//!   does not read, costs exactly the touched entry — evicted by
//!   verification, counted, recomputed — and every answer still equals the
//!   reference.
//! * **One format** — a file that is not a current image (a version-1, -2
//!   or -3 container, a foreign file, a stub) is rejected by `open`
//!   with exactly the typed error the in-memory entry point gives.

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

/// Donor engine's fingerprinted snapshot after a warming workload.
fn donor_snapshot(hin: &Arc<Hin>) -> CacheSnapshot {
    let donor = Engine::with_config(
        Arc::clone(hin),
        CacheConfig::default(),
        ExecPolicy::promote_after(0),
    );
    for q in [
        "pathsim author-paper-author from a0",
        "pathsim author-paper-venue-paper-author from a1",
        "rank venue-paper-author limit 5",
    ] {
        donor.execute(q).expect("donor warming query");
    }
    donor.snapshot(None)
}

/// A unique scratch dir per (test, process, thread).
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "hin-mmap-props-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Bit-identity: same names in the same order, scores equal by bit
/// pattern.
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

/// The anchored and global queries every restored engine must answer like
/// the reference.
fn probe_queries(world: &World) -> Vec<String> {
    let mut queries = Vec::new();
    for a in 0..world.n_authors {
        queries.push(format!("pathsim author-paper-author from a{a}"));
        queries.push(format!("pathsim author-paper-venue-paper-author from a{a}"));
        queries.push(format!("pathcount author-paper-venue from a{a}"));
    }
    queries.push("rank venue-paper-author limit 10".to_string());
    queries
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Engines warm-started from the same checkpoint through the mapped
    /// file and through a heap copy of its bytes answer pathsim, pathcount
    /// and rank bit-identically — materializing every span under
    /// `promote_after(0)` and on lazy anchored propagation alike, every
    /// mapped entry proved by the restore.
    #[test]
    fn mapped_engine_matches_read_engine(world in worlds()) {
        let hin = world.build();
        let dir = scratch_dir("parity");
        let path = dir.join("cache.hsnp");
        donor_snapshot(&hin).write_to_file(&path).expect("write checkpoint");

        let read_snap = CacheSnapshot::from_bytes(&std::fs::read(&path).expect("read back"))
            .expect("heap restore");
        let mapped_snap = CacheSnapshot::open(&path).expect("mapped restore");
        prop_assert_eq!(mapped_snap.keys(), read_snap.keys());
        prop_assert_eq!(mapped_snap.bytes(), read_snap.bytes());
        let queries = probe_queries(&world);

        for policy in [ExecPolicy::promote_after(0), ExecPolicy::promote_after(u32::MAX)] {
            let via_read =
                Engine::with_config(Arc::clone(&hin), CacheConfig::default(), policy);
            let via_map =
                Engine::with_config(Arc::clone(&hin), CacheConfig::default(), policy);
            let r = via_read.restore(&read_snap);
            let m = via_map.restore(&mapped_snap);
            prop_assert_eq!(m.loaded, r.loaded, "restore admits the same entries");
            prop_assert_eq!(m.rejected, 0);
            for engine in [&via_read, &via_map] {
                prop_assert_eq!(engine.cache().stats().restore_verified, m.loaded);
                prop_assert_eq!(engine.cache().stats().restore_corrupt, 0);
            }
            for q in &queries {
                let want = via_read.execute(q).expect("heap-backed execution");
                let got = via_map.execute(q).expect("mapped-backed execution");
                assert_bit_identical(&got, &want, &format!("{q} [{policy:?}]"))?;
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Corrupting the checkpoint file never panics, never makes the mapped
    /// path disagree with the in-memory one about what mounts, and is never
    /// served: a truncation is a decode error; a flipped bit is a decode
    /// error or the loss of exactly the entry it touched.
    #[test]
    fn mapped_corruption_never_panics(world in worlds(),
                                      cuts in prop::collection::vec(0usize..usize::MAX, 8),
                                      flips in prop::collection::vec((0usize..usize::MAX, 0u8..8), 12)) {
        let hin = world.build();
        let dir = scratch_dir("corrupt");
        let path = dir.join("cache.hsnp");
        let donor = donor_snapshot(&hin);
        donor.write_to_file(&path).expect("write checkpoint");
        let good = std::fs::read(&path).expect("read back");
        let bad_path = dir.join("cache-bad.hsnp");
        let queries = probe_queries(&world);
        let reference = Engine::from_arc(Arc::clone(&hin));
        let want: Vec<_> = queries.iter().map(|q| reference.execute(q).expect("reference")).collect();
        let heap_off = u64::from_le_bytes(good[40..48].try_into().expect("8 bytes")) as usize;

        for &cut in &cuts {
            let cut = cut % good.len();
            std::fs::write(&bad_path, &good[..cut]).expect("write truncation");
            prop_assert!(
                CacheSnapshot::open(&bad_path).is_err(),
                "a truncation at {} mounted", cut
            );
        }
        // one flip is always aimed at the metadata, which is a small share
        // of the file and must never mount
        let aimed = flips.iter().take(1).map(|&(pos, bit)| (pos % heap_off, bit));
        for (pos, bit) in aimed.chain(flips.iter().map(|&(pos, bit)| (pos % good.len(), bit))) {
            let mut bad = good.clone();
            bad[pos] ^= 1 << bit;
            std::fs::write(&bad_path, &bad).expect("write flip");
            let mapped = CacheSnapshot::open(&bad_path);
            prop_assert_eq!(
                mapped.is_ok(), CacheSnapshot::from_bytes(&bad).is_ok(),
                "open and from_bytes disagree on flip at byte {} bit {}", pos, bit
            );
            let Ok(mapped) = mapped else { continue };
            prop_assert!(pos >= heap_off, "a flipped metadata byte ({}) mounted", pos);

            // it mounted: the flip sits in payload words. The restore finds
            // it, only it, and the engine answers as if it had never been
            // in the file
            let engine = Engine::with_config(
                Arc::clone(&hin), CacheConfig::default(), ExecPolicy::promote_after(0));
            let report = engine.restore(&mapped);
            prop_assert_eq!((report.loaded as usize + 1, report.rejected), (donor.len(), 1));
            let cache = engine.cache();
            prop_assert_eq!(cache.stats().restore_corrupt, 1, "byte {} bit {}", pos, bit);
            prop_assert_eq!(cache.stats().restore_verified, report.loaded);
            prop_assert_eq!(cache.stats().len + 1, donor.len(), "the touched entry is gone");
            for (q, want) in queries.iter().zip(&want) {
                let got = engine.execute(q).expect("execution after a dropped entry");
                assert_bit_identical(&got, want, &format!("{q} [byte {pos} bit {bit}]"))?;
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A file that is not a current image — a version-1, -2 or -3
    /// container from an older build, a foreign file, a stub too short to
    /// hold a header — is rejected by `open` with exactly the typed error
    /// the in-memory entry point reports, whatever its body holds and
    /// whether or not the file could be mapped at all.
    #[test]
    fn non_v2_files_are_rejected_identically_by_mapped_and_read(
        head in 0usize..5,
        body in prop::collection::vec(0u8..=255, 0..200),
    ) {
        let mut bytes = match head {
            0 => [b"HSNP".as_slice(), &1u32.to_le_bytes()].concat(),
            1 => [b"HSNP".as_slice(), &2u32.to_le_bytes()].concat(),
            2 => [b"HSNP".as_slice(), &3u32.to_le_bytes()].concat(),
            3 => b"HFRM\x03\0\0\0".to_vec(),
            _ => Vec::new(),
        };
        bytes.extend_from_slice(&body);
        if bytes.starts_with(b"HSNP\x04\0\0\0") {
            bytes[0] = b'X';
        }
        let dir = scratch_dir("non-v3");
        let path = dir.join("cache.hsnp");
        std::fs::write(&path, &bytes).expect("write");

        let want = CacheSnapshot::from_bytes(&bytes)
            .expect_err("the in-memory path accepted a foreign image")
            .to_string();
        if head < 3 && bytes.len() >= 64 {
            let version = head as u32 + 1;
            prop_assert_eq!(&want, &hin_query::CodecError::UnsupportedVersion(version).to_string());
        }
        let got = CacheSnapshot::open(&path)
            .expect_err("open accepted a foreign file")
            .to_string();
        prop_assert_eq!(&got, &want);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
