//! The source papers' headline results as assertions. Each test asserts
//! the qualitative ordering a paper reports — which method wins — on a
//! small seeded network, over several seeds, and states the smallest margin
//! it held by. A seed where a claim fails is a finding, not a tuning knob.

use hin_bench::{PeerStudy, TruthTrial, TRUTH_REGIMES};
use hin_similarity::{path_count, random_walk_measure, top_k_pathsim};

/// PathSim (Sun et al., VLDB 2011; tutorial §7(b)) finds peers, not hubs:
/// on `exp_pathsim`'s network and queries, its peer precision@10 beats
/// PathCount's and the random-walk measure's at every seed. Over seeds
/// 11–15 PathSim scored 0.930–1.000 and the other two 0.035–0.080 (the two
/// rank a row in the same order), so the smallest margin seen was 0.873.
#[test]
fn pathsim_finds_peers_not_hubs() {
    const K: usize = 10;
    let mut smallest = f64::INFINITY;
    for seed in 11..=15 {
        let study = PeerStudy::new(seed);
        let m = &study.m;
        let pathsim = study.mean_precision(|q| top_k_pathsim(m, q, K));
        let count = study.mean_precision(|q| path_count(m, q, K));
        let walk = study.mean_precision(|q| random_walk_measure(m, q, K));
        println!("seed {seed}: PathSim {pathsim:.3}, PathCount {count:.3}, random walk {walk:.3}");
        assert!(
            pathsim > count && pathsim > walk,
            "seed {seed}: PathSim {pathsim:.3} vs PathCount {count:.3}, random walk {walk:.3}"
        );
        smallest = smallest.min(pathsim - count.max(walk));
    }
    println!("smallest margin {smallest:.3}");
}

/// TruthFinder (Yin, Han & Yu, TKDE 2008; tutorial §6) beats majority
/// voting when the liars coordinate: on `exp_truth`'s generator, where bad
/// sources share one false value per object, its accuracy exceeds voting's
/// at 40 % and at 35 % good sources, at each of `exp_truth`'s seeds
/// 900–904, and the trust it learns for good sources exceeds that of bad
/// ones in all four regimes.
#[test]
fn truthfinder_beats_voting_when_liars_coordinate() {
    let mut smallest = f64::INFINITY;
    for (frac_good, rel_bad) in TRUTH_REGIMES {
        for seed in 900..905 {
            let t = TruthTrial::run(frac_good, rel_bad, seed);
            println!(
                "good {frac_good:.2}, seed {seed}: TruthFinder {:.3}, voting {:.3}, trust gap {:.3}",
                t.truthfinder, t.voting, t.trust_gap
            );
            assert!(
                t.trust_gap > 0.0,
                "good {frac_good}, seed {seed}: gap {:.3}",
                t.trust_gap
            );
            if frac_good <= 0.4 {
                assert!(
                    t.truthfinder > t.voting,
                    "good {frac_good}, seed {seed}: TruthFinder {:.3} vs voting {:.3}",
                    t.truthfinder,
                    t.voting
                );
                smallest = smallest.min(t.truthfinder - t.voting);
            }
        }
    }
    println!("smallest margin {smallest:.3}");
}
