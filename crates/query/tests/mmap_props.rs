//! Property tests for the memory-mapped snapshot restore path.
//!
//! Three contracts under random worlds and random corruption:
//!
//! * **Parity** — an engine warm-started through
//!   [`CacheSnapshot::read_from_file_mapped`] (eager *or* lazy
//!   checksumming) answers pathsim/pathcount/rank bit-identically to an
//!   engine warm-started through the read-based
//!   [`CacheSnapshot::read_from_file`]. Demand paging must be invisible
//!   to the arithmetic.
//! * **Robustness** — truncating or bit-flipping the checkpoint file
//!   never panics the mapped path. Eager mode rejects exactly what the
//!   read path rejects; lazy mode may accept a payload-only flip (the
//!   seal is deliberately skipped) but must still reject every
//!   structural corruption, and must never panic either way.
//! * **One format** — a file that is not a v2 arena image (a v1
//!   container, a foreign file, a stub) is rejected by the mapped entry
//!   point with exactly the typed error the read entry point gives.

use std::sync::Arc;

use hin_core::{Hin, HinBuilder};
use hin_query::{CacheConfig, CacheSnapshot, ChecksumMode, Engine, ExecPolicy};
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
    let donor = Engine::with_config(Arc::clone(hin), CacheConfig::default(), ExecPolicy::eager());
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Engines warm-started from the same checkpoint file through the
    /// read path and the mapped path (both checksum modes) answer
    /// pathsim, pathcount and rank bit-identically — under eager
    /// materialization and lazy anchored propagation alike.
    #[test]
    fn mapped_engine_matches_read_engine(world in worlds()) {
        let hin = world.build();
        let dir = scratch_dir("parity");
        let path = dir.join("cache.hsnp");
        donor_snapshot(&hin).write_to_file(&path).expect("write checkpoint");

        let read_snap = CacheSnapshot::read_from_file(&path).expect("read restore");
        let mut queries = Vec::new();
        for a in 0..world.n_authors {
            queries.push(format!("pathsim author-paper-author from a{a}"));
            queries.push(format!("pathsim author-paper-venue-paper-author from a{a}"));
            queries.push(format!("pathcount author-paper-venue from a{a}"));
        }
        queries.push("rank venue-paper-author limit 10".to_string());

        for mode in [ChecksumMode::Eager, ChecksumMode::Lazy] {
            let mapped_snap =
                CacheSnapshot::read_from_file_mapped(&path, mode).expect("mapped restore");
            prop_assert_eq!(mapped_snap.keys(), read_snap.keys());
            prop_assert_eq!(mapped_snap.bytes(), read_snap.bytes());
            for policy in [ExecPolicy::eager(), ExecPolicy::promote_after(u32::MAX)] {
                let via_read =
                    Engine::with_config(Arc::clone(&hin), CacheConfig::default(), policy);
                let via_map =
                    Engine::with_config(Arc::clone(&hin), CacheConfig::default(), policy);
                let r = via_read.restore(&read_snap);
                let m = via_map.restore(&mapped_snap);
                prop_assert_eq!(m.loaded, r.loaded, "restore admits the same entries");
                prop_assert_eq!(m.rejected, 0);
                for q in &queries {
                    let want = via_read.execute(q).expect("read-backed execution");
                    let got = via_map.execute(q).expect("mapped-backed execution");
                    assert_bit_identical(&got, &want, &format!("{q} [{mode:?}]"))?;
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Corrupting the checkpoint file never panics the mapped path:
    /// eager mode rejects exactly what the read path rejects, lazy mode
    /// either rejects (structural damage) or decodes (a payload flip the
    /// skipped seal cannot see) — the property is the absence of panics
    /// and of eager/read divergence, enforced by the harness itself.
    #[test]
    fn mapped_corruption_never_panics(world in worlds(),
                                      cuts in prop::collection::vec(0usize..usize::MAX, 8),
                                      flips in prop::collection::vec((0usize..usize::MAX, 0u8..8), 12)) {
        let hin = world.build();
        let dir = scratch_dir("corrupt");
        let path = dir.join("cache.hsnp");
        donor_snapshot(&hin).write_to_file(&path).expect("write checkpoint");
        let good = std::fs::read(&path).expect("read back");
        let bad_path = dir.join("cache-bad.hsnp");

        for &cut in &cuts {
            let cut = cut % good.len();
            std::fs::write(&bad_path, &good[..cut]).expect("write truncation");
            prop_assert!(
                CacheSnapshot::read_from_file_mapped(&bad_path, ChecksumMode::Eager).is_err(),
                "eager-mapped decoded a truncation at {cut}"
            );
            let _ = CacheSnapshot::read_from_file_mapped(&bad_path, ChecksumMode::Lazy);
        }
        for &(pos, bit) in &flips {
            let pos = pos % good.len();
            let mut bad = good.clone();
            bad[pos] ^= 1 << bit;
            std::fs::write(&bad_path, &bad).expect("write flip");
            let read_rejects = CacheSnapshot::read_from_file(&bad_path).is_err();
            let eager_rejects =
                CacheSnapshot::read_from_file_mapped(&bad_path, ChecksumMode::Eager).is_err();
            prop_assert_eq!(
                eager_rejects, read_rejects,
                "eager-mapped and read paths disagree on flip at byte {} bit {}",
                pos, bit
            );
            prop_assert!(read_rejects, "read path decoded a corrupt container");
            let _ = CacheSnapshot::read_from_file_mapped(&bad_path, ChecksumMode::Lazy);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A file that is not a v2 image — a version-1 container from an
    /// older build, a foreign file, a stub too short to hold a header — is
    /// rejected by the mapped entry point (either checksum mode) with
    /// exactly the typed error the read entry point reports, whatever its
    /// body holds and whether or not the file could be mapped at all.
    #[test]
    fn non_v2_files_are_rejected_identically_by_mapped_and_read(
        head in 0usize..3,
        body in prop::collection::vec(0u8..=255, 0..200),
    ) {
        let mut bytes = match head {
            0 => [b"HSNP".as_slice(), &1u32.to_le_bytes()].concat(),
            1 => b"HFRM\x02\0\0\0".to_vec(),
            _ => Vec::new(),
        };
        bytes.extend_from_slice(&body);
        if bytes.starts_with(b"HSNP\x02\0\0\0") {
            bytes[0] = b'X';
        }
        let dir = scratch_dir("non-v2");
        let path = dir.join("cache.hsnp");
        std::fs::write(&path, &bytes).expect("write");

        let want = CacheSnapshot::read_from_file(&path)
            .expect_err("the read path accepted a non-v2 file")
            .to_string();
        if head == 0 && bytes.len() >= 72 {
            prop_assert_eq!(&want, &hin_query::CodecError::UnsupportedVersion(1).to_string());
        }
        for mode in [ChecksumMode::Eager, ChecksumMode::Lazy] {
            let got = CacheSnapshot::read_from_file_mapped(&path, mode)
                .expect_err("the mapped path accepted a non-v2 file")
                .to_string();
            prop_assert_eq!(&got, &want, "{:?}", mode);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
