//! The source papers' headline results as assertions. Each test asserts
//! the qualitative ordering a paper reports — which method wins — on a
//! small seeded network, over several seeds, and states the smallest margin
//! it held by. A seed where a claim fails is a finding, not a tuning knob.

use hin_bench::{
    ClassifyTrial, OlapTrial, PeerStudy, RankClusTrial, RankingTrial, TruthTrial, TRUTH_REGIMES,
};
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

/// GNetMine (Ji et al., ECML/PKDD 2010; tutorial §5) beats the homogeneous
/// wvRN baseline when labels are scarce: with 1 % of papers labelled, on
/// `exp_classify`'s network at each of its seeds 700–704, propagating over
/// every relation classifies more held-out papers than voting over
/// co-authors. Over those seeds GNetMine scored 0.743–0.912 and wvRN
/// 0.356–0.674, so the smallest margin seen was 0.119.
#[test]
fn gnetmine_beats_wvrn_when_labels_are_scarce() {
    let mut smallest = f64::INFINITY;
    for run in 0..5 {
        let t = ClassifyTrial::run(100, run);
        let seed = 700 + run;
        println!(
            "seed {seed}: GNetMine {:.3}, wvRN {:.3}",
            t.gnetmine, t.wvrn
        );
        assert!(
            t.gnetmine > t.wvrn,
            "seed {seed}: GNetMine {:.3} vs wvRN {:.3}",
            t.gnetmine,
            t.wvrn
        );
        smallest = smallest.min(t.gnetmine - t.wvrn);
    }
    println!("smallest margin {smallest:.3}");
}

/// RankClus (Sun et al., EDBT 2009; tutorial §4) clusters better with
/// authority ranking than with simple ranking when clusters overlap: on
/// `exp_rankclus_accuracy`'s D3 (45 % of links cross clusters, 100 links
/// per target), at each of its seeds 100–104, authority ranking's NMI
/// exceeds simple ranking's. Over those seeds authority scored
/// 0.040–0.801 and simple 0.037–0.443; the smallest margin seen was 0.003,
/// at seed 104. The two baselines are not compared here: at these sizes
/// both beat authority ranking on D3 (see `exp_rankclus_accuracy`).
#[test]
fn rankclus_authority_ranking_beats_simple_ranking_when_clusters_overlap() {
    let mut smallest = f64::INFINITY;
    for run in 0..5 {
        let t = RankClusTrial::new(0.45, 100.0, run);
        let (authority, simple) = (t.authority(), t.simple());
        let seed = 100 + run;
        println!("seed {seed}: authority {authority:.3}, simple {simple:.3}");
        assert!(
            authority > simple,
            "seed {seed}: authority {authority:.3} vs simple {simple:.3}"
        );
        smallest = smallest.min(authority - simple);
    }
    println!("smallest margin {smallest:.3}");
}

/// OLAP on information networks (iNextCube, VLDB 2009; tutorial §7(c))
/// aggregates a network along its dimensions without losing it: on
/// `exp_olap`'s area×year cube, at seeds 8–12, the cells partition the
/// papers, rolling the years up keeps every member, and each area cell's
/// size and link mass into every arm are the sums over that area's year
/// cells (link weights are 1.0, so the sums compare exactly). Each area
/// cell's three authors of largest link mass are authors planted in that
/// area.
#[test]
fn olap_cells_partition_the_corpus_and_roll_up_conserves_members_and_mass() {
    for seed in 8..=12 {
        let trial = OlapTrial::new(seed);
        let papers = trial.star.n_center;
        let cube = trial.cube();
        let mut members: Vec<u32> = cube
            .cells()
            .flat_map(|(_, cell)| cell.members.to_vec())
            .collect();
        members.sort_unstable();
        assert_eq!(
            members,
            (0..papers as u32).collect::<Vec<_>>(),
            "seed {seed}: every paper in exactly one cell"
        );
        assert_eq!(cube.total_members(), papers, "seed {seed}");
        let by_area = cube.roll_up(1);
        assert_eq!(by_area.total_members(), papers, "seed {seed}: roll-up");
        for area in 0..OlapTrial::AREAS {
            let cell = by_area.cell(&[area]).expect("area cell");
            let years: Vec<_> = (0..OlapTrial::YEARS)
                .filter_map(|y| cube.cell(&[area, y]))
                .collect();
            assert_eq!(
                cell.size(),
                years.iter().map(|c| c.size()).sum::<usize>(),
                "seed {seed}, area {area}: size"
            );
            for arm in 0..trial.star.arms.len() {
                assert_eq!(
                    cell.link_mass(arm),
                    years.iter().map(|c| c.link_mass(arm)).sum::<f64>(),
                    "seed {seed}, area {area}: link mass into arm {arm}"
                );
            }
            let top = cell.top_attributes(trial.author_arm, 3);
            println!("seed {seed}, area {area}: top authors {top:?}");
            assert_eq!(top.len(), 3, "seed {seed}, area {area}");
            for (author, mass) in top {
                assert_eq!(
                    trial.data.author_area[author as usize], area as usize,
                    "seed {seed}, area {area}: top author {author} ({mass}) planted elsewhere"
                );
            }
        }
    }
}

/// Ranking on a homogeneous network (tutorial §2(b)ii; PageRank, HITS): on
/// `exp_ranking`'s co-author network, at seeds 20–24, PageRank needs
/// strictly more iterations to reach 1e-10 as damping rises through 0.5,
/// 0.7, 0.85, 0.95 and 0.99, and PageRank, HITS authority and degree agree
/// on who leads: every pair of them shares at least 5 of its top 10. Over
/// those seeds PageRank took 15–16 iterations at 0.5 and 40–44 at 0.99,
/// each step up by at least 4, and the fewest authors any pair shared was
/// 9 (PageRank∩HITS and HITS∩degree at seeds 23 and 24).
#[test]
fn pagerank_slows_as_damping_rises_and_three_rankers_agree_on_the_top() {
    let mut fewest_shared = usize::MAX;
    for seed in 20..=24 {
        let trial = RankingTrial::new(seed);
        let iterations: Vec<usize> = trial.convergence().iter().map(|r| r.iterations).collect();
        println!("seed {seed}: iterations {iterations:?}");
        assert!(
            iterations.windows(2).all(|w| w[0] < w[1]),
            "seed {seed}: iterations {iterations:?} over dampings {:?}",
            RankingTrial::DAMPINGS
        );
        let [pr, authority, degree] = trial.top_tens();
        let pairs = [
            ("PageRank∩HITS", RankingTrial::overlap(&pr, &authority)),
            ("PageRank∩degree", RankingTrial::overlap(&pr, &degree)),
            ("HITS∩degree", RankingTrial::overlap(&authority, &degree)),
        ];
        println!("seed {seed}: top-10 overlaps {pairs:?}");
        for (pair, shared) in pairs {
            assert!(shared >= 5, "seed {seed}: {pair} shares {shared} of 10");
            fewest_shared = fewest_shared.min(shared);
        }
    }
    println!("fewest shared {fewest_shared}");
}
