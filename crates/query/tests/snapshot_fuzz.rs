//! Fuzzing the snapshot parser, [`CacheSnapshot::from_bytes`], with the
//! `proptest` shim: random bytes, and a valid image — matrices and a
//! factored span's ranked rows — mutated by an inserted, a deleted or an
//! overwritten word and then resealed, its metadata seal recomputed with
//! the public [`Fnv64`], so that the structural checks behind the seal are
//! what stand between the mutation and a mount.
//!
//! Whatever the input, the parser must not panic: it returns a typed
//! [`CodecError`] or a mount. A mount restored into a fresh engine must
//! answer every probe query bit for bit as `hin_synth::naive` does, right
//! after the restore returns: what a restore takes in is proved then, and
//! whatever it turned away is computed again.
//!
//! A key is covered by the seal alone. A resealed mutation that rewrites a
//! key into another well-formed key that fits the schema files a matrix
//! under another span (`a_flipped_relation_id_that_still_fits_the_schema_does_not_mount`
//! pins the seal's part), so the answers are held to the reference only
//! when the mount read the keys the image was written with.
//!
//! Truncations and single-bit flips without a reseal are
//! `snapshot_props.rs`'s and `mmap_props.rs`'s.

use std::sync::{Arc, OnceLock};

use hin_core::{Hin, RelationId};
use hin_linalg::codec::{CodecError, Fnv64};
use hin_query::{CacheConfig, CacheSnapshot, Engine, ExecPolicy};
use hin_synth::naive::{self, Query, Step, Verb};
use proptest::prelude::*;

/// Superheader bytes; the keys start here.
const HEADER: usize = 64;

/// Byte offset of the metadata seal inside the superheader.
const SEAL_AT: usize = 56;

/// The world, a valid image of it, and the probes with their reference
/// answers.
struct Fixture {
    hin: Arc<Hin>,
    image: Vec<u8>,
    probes: Vec<(String, naive::Answer)>,
}

/// The `row_memo.rs` world: `author-paper-venue-paper-author` is factored
/// there, so its hot reads go into the image as ranked rows, beside the
/// matrices of the spans that promote.
fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let hin = Arc::new(
            hin_synth::DblpConfig {
                n_areas: 4,
                authors_per_area: 40,
                venues_per_area: 3,
                n_papers: 600,
                seed: 31,
                ..hin_synth::DblpConfig::default()
            }
            .generate()
            .hin,
        );
        let rel = |name: &str| {
            let id = (0..hin.relation_count())
                .find(|&r| hin.relation(RelationId(r)).name == name)
                .expect("the DBLP world names this relation");
            RelationId(id)
        };
        let (written, published) = (rel("written_by"), rel("published_in"));
        let step = |relation, forward| Step { relation, forward };
        let apa = vec![step(written, false), step(written, true)];
        let apv = vec![step(written, false), step(published, true)];
        let vpa = vec![step(published, false), step(written, true)];
        let apvpa = [apv.clone(), vpa.clone()].concat();
        let query = |verb, path: &Vec<Step>, anchor| Query {
            verb,
            path: path.clone(),
            anchor,
            limit: None,
        };
        let mut probes = Vec::new();
        for a in 0..4 {
            probes.push(query(Verb::PathSim, &apvpa, Some(a * 37)));
            probes.push(query(Verb::PathCount, &apvpa, Some(a * 37)));
            probes.push(query(Verb::PathSim, &apa, Some(a * 41 + 3)));
        }
        probes.push(query(Verb::TopK(3), &apvpa, Some(37)));
        probes.push(query(Verb::PathCount, &apv, Some(5)));
        probes.push(query(Verb::Neighbors, &apv, Some(90)));
        probes.push(query(Verb::Rank, &vpa, None));

        // promote_after(0) makes resident whatever the cache lets through
        let donor = Engine::with_config(
            Arc::clone(&hin),
            CacheConfig::default(),
            ExecPolicy::promote_after(0),
        );
        let probes: Vec<(String, naive::Answer)> = probes
            .iter()
            .map(|q| {
                let text = q.render(&hin);
                donor.execute(&text).expect("the donor answers");
                (text, naive::evaluate(&hin, q))
            })
            .collect();
        let snap = donor.snapshot(None);
        assert!(!snap.is_empty() && snap.ranked_rows() > 0, "{snap:?}");
        Fixture {
            hin,
            image: snap.to_bytes(),
            probes,
        }
    })
}

fn word_at(image: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(image[off..off + 8].try_into().expect("8 bytes"))
}

/// Recompute the metadata seal over `[0, heap_off)`, where the image's own
/// header puts `heap_off`; an image whose header cannot say is left as it
/// is, for the parser to refuse.
fn reseal(image: &mut [u8]) {
    if image.len() < HEADER {
        return;
    }
    let heap_off = word_at(image, 40);
    if !heap_off.is_multiple_of(8) || heap_off < HEADER as u64 || heap_off > image.len() as u64 {
        return;
    }
    let mut seal = Fnv64::new();
    for (i, word) in image[..heap_off as usize].chunks_exact(8).enumerate() {
        if i != SEAL_AT / 8 {
            seal.update_word(u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
    }
    image[SEAL_AT..HEADER].copy_from_slice(&seal.finish().to_le_bytes());
}

/// The key block of an image — between the superheader and the directory.
fn keys(image: &[u8]) -> &[u8] {
    &image[HEADER..word_at(image, 32) as usize]
}

/// Mount `input`; when it mounts, restore it into a fresh engine and hold
/// every probe to the reference, unless the mount read other keys than the
/// image was written with. Returns whether it mounted.
fn mount_and_answer(input: &[u8]) -> Result<bool, String> {
    let fx = fixture();
    let mounted = match CacheSnapshot::from_bytes(input) {
        Ok(mounted) => mounted,
        Err(CodecError::Io(e)) => return Err(format!("an in-memory mount failed on I/O: {e}")),
        Err(_) => return Ok(false),
    };
    let engine = Engine::from_arc(Arc::clone(&fx.hin));
    engine.restore(&mounted);
    let rekeyed = keys(&mounted.to_bytes()) != keys(&fx.image);
    for (text, want) in &fx.probes {
        let got = engine.execute(text).map_err(|e| format!("{text}: {e}"))?;
        if rekeyed {
            continue;
        }
        prop_assert_eq!(&got.object_type, &want.object_type, "{}", text);
        let bits = |items: &[(String, f64)]| -> Vec<(String, u64)> {
            items
                .iter()
                .map(|(n, s)| (n.clone(), s.to_bits()))
                .collect()
        };
        prop_assert_eq!(bits(&got.items), bits(&want.items), "{}", text);
    }
    Ok(true)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_bytes_are_refused_or_answer_right(bytes in prop::collection::vec(0u8..=255, 0..400),
                                                framed in 0u8..3) {
        // a third of the inputs open with the magic and version, a third
        // also carry their own length and a seal, so later checks are
        // reached too
        let mut input = match framed {
            0 => Vec::new(),
            _ => [b"HSNP".as_slice(), &4u32.to_le_bytes()].concat(),
        };
        input.extend_from_slice(&bytes);
        if framed == 2 && input.len() >= HEADER {
            input.truncate(input.len() / 8 * 8);
            let len = input.len() as u64;
            input[48..56].copy_from_slice(&len.to_le_bytes());
            reseal(&mut input);
        }
        mount_and_answer(&input)?;
    }

    #[test]
    fn resealed_word_mutations_are_refused_or_answer_right(op in 0u8..3,
                                                           at in 0usize..usize::MAX,
                                                           in_metadata in 0u8..2,
                                                           value in 0u64..=u64::MAX,
                                                           how in 0u8..3) {
        let image = &fixture().image;
        let words = image.len() / 8;
        let heap_words = word_at(image, 40) as usize / 8;
        // the metadata is a small share of the image: half the mutations
        // land there
        let i = match in_metadata {
            0 => at % heap_words,
            _ => at % words,
        };
        let word = match how {
            0 => value,
            1 => value % 64,
            // off by a few: the shape of an offset, length or count error
            _ => word_at(image, i * 8).wrapping_add(value % 17).wrapping_sub(8),
        };
        let mut bad = image.clone();
        match op {
            0 => drop(bad.splice(i * 8..i * 8, word.to_le_bytes())),
            1 => drop(bad.drain(i * 8..i * 8 + 8)),
            _ => bad[i * 8..i * 8 + 8].copy_from_slice(&word.to_le_bytes()),
        }
        if op < 2 && bad.len() >= HEADER {
            let len = bad.len() as u64;
            bad[48..56].copy_from_slice(&len.to_le_bytes());
        }
        reseal(&mut bad);
        mount_and_answer(&bad)?;
    }
}

/// The fixture itself mounts, and answers, and a mutation of its values
/// mounts too: the fuzz above reaches the restore, not only the parser.
#[test]
fn the_fixture_mounts_and_a_value_mutation_reaches_the_restore() {
    let fx = fixture();
    assert_eq!(mount_and_answer(&fx.image), Ok(true));
    let heap_off = word_at(&fx.image, 40) as usize;
    let dir_off = word_at(&fx.image, 32) as usize;
    let data_off = word_at(&fx.image, dir_off + 40) as usize;
    assert!(data_off >= heap_off && word_at(&fx.image, dir_off + 16) > 0);
    let mut bad = fx.image.clone();
    bad[data_off..data_off + 8].copy_from_slice(&0x4000_0000_0000_0000u64.to_le_bytes());
    reseal(&mut bad);
    assert_eq!(mount_and_answer(&bad), Ok(true));
    let engine = Engine::from_arc(Arc::clone(&fx.hin));
    let report = engine.restore(&CacheSnapshot::from_bytes(&bad).unwrap());
    assert_eq!(report.rejected, 1, "{report:?}");
    assert_eq!(engine.stats().cache.restore_corrupt, 1);
}
