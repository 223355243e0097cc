//! Inputs: the seeded PRNG, the two network shapes, the request model and
//! the four workloads. Everything here is the benchmark's own arithmetic;
//! the program under test only ever sees the rendered query strings.

use std::collections::HashMap;

/// splitmix64 — the benchmark's own generator, so request lists do not
/// change when the workspace's `rand` stand-in does.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }
}

/// The four node types of the bibliographic star schema.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Ty {
    Author,
    Paper,
    Venue,
    Term,
}

use Ty::{Author as A, Paper as P, Term as T, Venue as V};

impl Ty {
    pub fn name(self) -> &'static str {
        match self {
            A => "author",
            P => "paper",
            V => "venue",
            T => "term",
        }
    }
}

/// Size of a generated network; every other generator knob stays default.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NetShape {
    pub areas: usize,
    pub authors_per_area: usize,
    pub venues_per_area: usize,
    pub terms_per_area: usize,
    pub shared_terms: usize,
    pub papers: usize,
}

/// ≈ 31.6 k nodes; `author-paper-venue-paper-author` materialises to
/// ≈ 133 MB, so cache-resident serving and snapshots have real weight.
pub const NET_L: NetShape = NetShape {
    areas: 8,
    authors_per_area: 1000,
    venues_per_area: 10,
    terms_per_area: 400,
    shared_terms: 200,
    papers: 20_000,
};

/// ≈ 10 k nodes; the ten `span_thrash` spans total ≈ 93 MB (≈ 167 MB with
/// the sub-spans their plans materialise), 12–21 times that workload's
/// 8 MB cache budget.
pub const NET_S: NetShape = NetShape {
    areas: 8,
    authors_per_area: 300,
    venues_per_area: 10,
    terms_per_area: 150,
    shared_terms: 200,
    papers: 6_000,
};

/// `--smoke` stand-in for both networks: same code paths, seconds not
/// minutes.
pub const NET_SMOKE: NetShape = NetShape {
    areas: 4,
    authors_per_area: 100,
    venues_per_area: 5,
    terms_per_area: 60,
    shared_terms: 40,
    papers: 1_500,
};

impl NetShape {
    pub fn count(&self, ty: Ty) -> usize {
        match ty {
            A => self.areas * self.authors_per_area,
            P => self.papers,
            V => self.areas * self.venues_per_area,
            T => self.areas * self.terms_per_area + self.shared_terms,
        }
    }

    /// The generator's name for node `id` of type `ty` (ids are grouped by
    /// area: `id = area * per_area + rank`).
    pub fn node_name(&self, ty: Ty, id: usize) -> String {
        let per_area = match ty {
            A => self.authors_per_area,
            V => self.venues_per_area,
            T => self.terms_per_area,
            P => return format!("paper_{id}"),
        };
        if ty == T && id >= self.areas * per_area {
            return format!("term_shared_{}", id - self.areas * per_area);
        }
        format!("{}_a{}_{}", ty.name(), id / per_area, id % per_area)
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Verb {
    PathSim,
    TopK(usize),
    PathCount,
    Neighbors,
    Rank,
}

/// One query shape: a verb over a meta-path, anchored at the path's first
/// type (except `rank`, which takes no anchor).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Template {
    pub verb: Verb,
    pub path: &'static [Ty],
    pub limit: Option<usize>,
    /// Share of the mix, in percent.
    pub share: u32,
}

const fn t(verb: Verb, path: &'static [Ty], limit: Option<usize>, share: u32) -> Template {
    Template {
        verb,
        path,
        limit,
        share,
    }
}

/// How anchors are drawn over the start type's nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Anchors {
    /// `rank = ⌊u²·n⌋` over the `n` most prolific nodes, round-robin
    /// across areas: a few anchors are asked about much more than the rest.
    Skewed(usize),
    Uniform,
}

/// A seeded request stream: which templates, in what shares, over which
/// anchors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mix {
    pub templates: &'static [Template],
    pub anchors: Anchors,
    /// Requests in the list; a run that outlasts it starts over.
    pub len: usize,
    /// Salt, so two mixes under one `--seed` draw independent streams.
    salt: u64,
}

/// Read-mostly traffic over six spans that all fit in the cache.
pub const MIX_HOT: Mix = Mix {
    templates: &[
        t(Verb::PathSim, &[A, P, V, P, A], None, 20),
        t(Verb::TopK(8), &[A, P, A], None, 23),
        t(Verb::PathCount, &[A, P, V], None, 25),
        t(Verb::PathCount, &[A, P, T], Some(10), 15),
        t(Verb::Neighbors, &[A, P], None, 15),
        t(Verb::Rank, &[V, P, A], Some(10), 2),
    ],
    anchors: Anchors::Skewed(1000),
    len: 60_000,
    salt: 0x686f_7421,
};

/// Ten span families — 12 % each for the three costliest, 9–10 % for the
/// rest — whose matrices total over ten times the cache budget: every span
/// keeps being promoted, stored and evicted.
pub const MIX_THRASH: Mix = Mix {
    templates: &[
        t(Verb::PathSim, &[A, P, V, P, A], None, 12),
        t(Verb::PathSim, &[A, P, T, P, A], None, 12),
        t(Verb::TopK(8), &[A, P, A, P, A], None, 9),
        t(Verb::PathCount, &[P, A, P, V], None, 9),
        t(Verb::PathCount, &[P, T, P, V], None, 9),
        t(Verb::PathCount, &[A, P, V, P, T], Some(10), 12),
        t(Verb::PathCount, &[V, P, A, P, V], None, 9),
        t(Verb::PathCount, &[A, P, T, P, V], None, 9),
        t(Verb::PathCount, &[A, P, A, P, V], None, 9),
        t(Verb::TopK(8), &[P, A, P], None, 10),
    ],
    anchors: Anchors::Uniform,
    len: 12_000,
    salt: 0x7468_7221,
};

/// One request: a template of its mix and an anchor id (ignored by
/// `rank`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Request {
    pub template: Template,
    pub anchor: usize,
}

impl Request {
    /// The query text the program under test receives.
    pub fn render(&self, net: &NetShape) -> String {
        let path: Vec<&str> = self.template.path.iter().map(|ty| ty.name()).collect();
        let path = path.join("-");
        let mut q = match self.template.verb {
            Verb::PathSim => format!("pathsim {path}"),
            Verb::TopK(k) => format!("topk {k} {path}"),
            Verb::PathCount => format!("pathcount {path}"),
            Verb::Neighbors => format!("neighbors {path}"),
            Verb::Rank => format!("rank {path}"),
        };
        if self.template.verb != Verb::Rank {
            q.push_str(" from ");
            q.push_str(&net.node_name(self.template.path[0], self.anchor));
        }
        if let Some(n) = self.template.limit {
            q.push_str(&format!(" limit {n}"));
        }
        q
    }
}

/// A generated request list with duplicates folded: `order[i]` indexes
/// `distinct` / `queries`, so reference answers are computed once per
/// distinct request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestList {
    pub distinct: Vec<Request>,
    pub queries: Vec<String>,
    pub order: Vec<u32>,
}

impl Mix {
    /// The mix cut to `len` requests (`--smoke`, traced passes).
    pub fn with_len(self, len: usize) -> Mix {
        Mix { len, ..self }
    }

    fn draw_template(&self, rng: &mut SplitMix64) -> Template {
        let total: u32 = self.templates.iter().map(|t| t.share).sum();
        let mut ticket = rng.below(total as usize) as u32;
        for t in self.templates {
            if ticket < t.share {
                return *t;
            }
            ticket -= t.share;
        }
        unreachable!("ticket is below the sum of shares")
    }

    fn draw_anchor(&self, rng: &mut SplitMix64, net: &NetShape, ty: Ty) -> usize {
        let n = net.count(ty);
        match self.anchors {
            Anchors::Uniform => rng.below(n),
            Anchors::Skewed(top) => {
                let u = rng.unit();
                let rank = ((u * u * top as f64) as usize).min(n - 1);
                // within an area the generator's Zipf makes low ids
                // prolific; spread consecutive ranks across areas
                let per_area = n / net.areas;
                ((rank % net.areas) * per_area + rank / net.areas).min(n - 1)
            }
        }
    }

    /// The request list for `seed` on `net`: same arguments, same bytes.
    pub fn generate(&self, seed: u64, net: &NetShape) -> RequestList {
        let mut rng = SplitMix64::new(seed ^ self.salt);
        let mut ids: HashMap<Request, u32> = HashMap::new();
        let mut list = RequestList {
            distinct: Vec::new(),
            queries: Vec::new(),
            order: Vec::with_capacity(self.len),
        };
        for _ in 0..self.len {
            let template = self.draw_template(&mut rng);
            let anchor = match template.verb {
                Verb::Rank => 0,
                _ => self.draw_anchor(&mut rng, net, template.path[0]),
            };
            let req = Request { template, anchor };
            let id = *ids.entry(req).or_insert_with(|| {
                list.distinct.push(req);
                list.queries.push(req.render(net));
                (list.distinct.len() - 1) as u32
            });
            list.order.push(id);
        }
        list
    }
}

/// Which serving stack answers the requests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TargetKind {
    /// In-process `Server`.
    Local,
    /// `Router` fronting one local dataset.
    Routed,
    /// `ShardListener` + `RemoteServerHandle` over loopback TCP.
    Remote,
}

/// How load is offered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// `min(nproc, 4)` generators, each keeping [`IN_FLIGHT`] tickets
    /// outstanding: cores stay saturated and no worker sleeps.
    Loaded,
    /// One generator, one request in flight.
    Solo,
    /// One driver thread cycling checkpoint → evict → restore-from-file →
    /// [`PROBES_PER_CYCLE`] probes ([`IN_FLIGHT`] outstanding).
    Restart,
}

/// Tickets each loaded generator keeps outstanding.
pub const IN_FLIGHT: usize = 8;

impl Shape {
    /// `(generator threads, tickets each keeps in flight)`. Never more
    /// generators than `min(nproc, 4)`: the generators share the box with
    /// the program they load.
    pub fn clients(self) -> (usize, usize) {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        match self {
            Shape::Loaded => (nproc.min(4), IN_FLIGHT),
            Shape::Solo => (1, 1),
            Shape::Restart => (1, IN_FLIGHT),
        }
    }
}

/// Probe requests after each restore in [`Shape::Restart`].
pub const PROBES_PER_CYCLE: usize = 256;

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub net: NetShape,
    pub mix: Mix,
    pub target: TargetKind,
    pub shape: Shape,
    /// Byte budget of the commuting-matrix cache (`None` = unbounded, the
    /// default).
    pub cache_budget: Option<usize>,
    /// Untimed requests from the head of the list that fill caches before
    /// the clock starts.
    pub warmup: usize,
    /// One in this many timed answers is compared with its reference.
    pub check_every: usize,
    /// Requests in one load pass of the traced run (fixed, so counts
    /// repeat from run to run).
    pub traced_ops: usize,
    /// The `--smoke` variant of the workload.
    pub smoke: bool,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "hot_anchor",
        why: "Cache-resident skewed reads through the in-process server: parse/plan, queue, \
              dispatch and PathSim row assembly do the work; kernels, eviction and wire idle.",
        net: NET_L,
        mix: MIX_HOT,
        target: TargetKind::Local,
        shape: Shape::Loaded,
        cache_budget: None,
        warmup: 5_000,
        check_every: 16,
        traced_ops: 10_000,
        smoke: false,
    },
    Workload {
        name: "remote_hot",
        why: "The identical request list over loopback TCP: same engine work as hot_anchor, so \
              the difference is the wire codec and the remote client; a wire gain shows only here.",
        net: NET_L,
        mix: MIX_HOT,
        target: TargetKind::Remote,
        shape: Shape::Loaded,
        cache_budget: None,
        warmup: 5_000,
        check_every: 1,
        traced_ops: 10_000,
        smoke: false,
    },
    Workload {
        name: "span_thrash",
        why: "Ten span families totalling over ten times an 8 MB cache, one request at a time: \
              SpGEMM/SpVM kernels, promotion and cache insert/evict do the work; serving is <1%.",
        net: NET_S,
        mix: MIX_THRASH,
        target: TargetKind::Local,
        shape: Shape::Solo,
        cache_budget: Some(8 << 20),
        warmup: 600,
        check_every: 16,
        traced_ops: 600,
        smoke: false,
    },
    Workload {
        name: "warm_restart",
        why: "Checkpoint, evict, restore from file, then probe, in a loop behind the router: \
              snapshot export/import, codec, arena and file I/O do the work; probes expose \
              deferred restore cost.",
        net: NET_L,
        mix: MIX_HOT,
        target: TargetKind::Routed,
        shape: Shape::Restart,
        cache_budget: None,
        warmup: 5_000,
        check_every: 1,
        traced_ops: 10_000,
        smoke: false,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The `--smoke` variant: 1 % of the requests on a small network, same
    /// code paths.
    pub fn smoke(self) -> Workload {
        Workload {
            net: NET_SMOKE,
            mix: self.mix.with_len(self.mix.len / 100),
            cache_budget: self.cache_budget.map(|b| b / 64),
            warmup: self.warmup / 100,
            traced_ops: self.traced_ops / 100,
            smoke: true,
            ..self
        }
    }
}

/// Seed of the generated network, derived from `--seed` so it is not the
/// request stream's.
pub fn net_seed(seed: u64) -> u64 {
    SplitMix64::new(seed ^ 0x6e65_7477).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_prng_is_deterministic_and_matches_the_reference_stream() {
        // first outputs of the public-domain splitmix64.c seeded with 1234567
        let mut r = SplitMix64::new(1_234_567);
        assert_eq!(r.next_u64(), 6_457_827_717_110_365_317);
        assert_eq!(r.next_u64(), 3_203_168_211_198_807_973);
        let a: Vec<u64> = (0..8).map(|_| SplitMix64::new(7).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        let mut r = SplitMix64::new(9);
        for _ in 0..10_000 {
            assert!((0.0..1.0).contains(&r.unit()));
            assert!(r.below(13) < 13);
        }
    }

    #[test]
    fn mix_shares_are_within_one_point_over_100k_draws() {
        for mix in [MIX_HOT, MIX_THRASH] {
            assert_eq!(mix.templates.iter().map(|t| t.share).sum::<u32>(), 100);
            let mut rng = SplitMix64::new(3);
            let mut seen: HashMap<Template, u32> = HashMap::new();
            for _ in 0..100_000 {
                *seen.entry(mix.draw_template(&mut rng)).or_default() += 1;
            }
            for t in mix.templates {
                let got = f64::from(seen[t]) / 1000.0;
                assert!((got - f64::from(t.share)).abs() < 1.0, "{t:?}: {got}%");
            }
        }
    }

    #[test]
    fn the_same_seed_gives_a_byte_identical_request_list() {
        let mix = MIX_HOT.with_len(5_000);
        let a = mix.generate(42, &NET_L);
        assert_eq!(a, mix.generate(42, &NET_L));
        assert_ne!(a.queries, mix.generate(43, &NET_L).queries);
        assert_eq!(a.order.len(), 5_000);
        assert!(a.distinct.len() < 5_000, "skewed anchors repeat");
        assert!(a.order.iter().all(|&i| (i as usize) < a.distinct.len()));
        // a longer list extends a shorter one: the driver's time-boxed run
        // and a fixed-count run walk the same prefix
        let longer = MIX_HOT.with_len(6_000).generate(42, &NET_L);
        assert_eq!(a.order[..], longer.order[..5_000]);
    }

    #[test]
    fn requests_render_in_the_query_grammar() {
        let req = |template, anchor| Request { template, anchor }.render(&NET_L);
        assert_eq!(
            req(MIX_HOT.templates[0], 1001),
            "pathsim author-paper-venue-paper-author from author_a1_1"
        );
        assert_eq!(
            req(MIX_HOT.templates[1], 0),
            "topk 8 author-paper-author from author_a0_0"
        );
        assert_eq!(
            req(MIX_HOT.templates[3], 7999),
            "pathcount author-paper-term from author_a7_999 limit 10"
        );
        assert_eq!(
            req(MIX_HOT.templates[5], 5),
            "rank venue-paper-author limit 10"
        );
        assert_eq!(
            req(MIX_THRASH.templates[9], 17),
            "topk 8 paper-author-paper from paper_17"
        );
        assert_eq!(NET_L.node_name(T, 3199), "term_a7_399");
        assert_eq!(NET_L.node_name(T, 3200), "term_shared_0");
        assert_eq!(NET_L.node_name(V, 79), "venue_a7_9");
    }

    #[test]
    fn skewed_anchors_stay_in_range_and_favour_low_ranks() {
        let mut rng = SplitMix64::new(5);
        let mut first_area_head = 0;
        for _ in 0..10_000 {
            let a = MIX_HOT.draw_anchor(&mut rng, &NET_L, A);
            assert!(a < NET_L.count(A));
            assert!(a % NET_L.authors_per_area < 125, "top 1000 = 125 per area");
            first_area_head += usize::from(a % NET_L.authors_per_area < 12);
        }
        // u² < 0.1 ⇔ u < 0.316
        assert!(
            (2_800..3_500).contains(&first_area_head),
            "{first_area_head}"
        );
        for w in WORKLOADS {
            assert_eq!(Workload::by_name(w.name).map(|x| x.name), Some(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }
}
