//! What a workload's system host builds before it serves: the catalogue,
//! the generated interfaces and their registration. The same code runs in
//! the server host and in the in-process trace passes, so every pass
//! starts from the same state.

use pi2::{
    Catalog, Event, Generation, GenerationConfig, InteractionChoice, MctsConfig, Pi2, Pi2Service,
    WidgetKind,
};
use pi2_difftree::{Forest, Workload};
use pi2_interface::{MappingContext, WidgetDomain};
use pi2_search::{best_interface, mcts_search};
use pi2_workloads::{big::big_catalog, log, LogKind};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rows per big-tier table: every query runs above the engine's
/// 131 072-row parallel threshold.
pub const BIG_ROWS: usize = 1_000_000;

/// The registered name of the big-tier workload.
pub const BIG: &str = "big";

/// The big-tier table the live workload appends to.
pub const BIG_TABLE: &str = "covid_big";

/// The paper's MCTS defaults (§7.3), except two workers so search
/// threads never outnumber the two cores the benchmark is sized for.
pub fn gen_config() -> GenerationConfig {
    GenerationConfig {
        mcts: MctsConfig {
            workers: 2,
            ..MctsConfig::default()
        },
        mapping: Default::default(),
    }
}

/// The serving workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Serving {
    /// Paper-scale covid and sales interfaces, every read a memo hit.
    Interact,
    /// The 10⁶-row tier, every read a memo miss.
    ExploreBig,
    /// The 10⁶-row tier with appends beside the reads.
    Live,
}

impl Serving {
    /// Parse a workload name.
    pub fn from_name(name: &str) -> Option<Serving> {
        match name {
            "interact" => Some(Serving::Interact),
            "explore_big" => Some(Serving::ExploreBig),
            "live" => Some(Serving::Live),
            _ => None,
        }
    }

    /// The workload name.
    pub fn name(self) -> &'static str {
        match self {
            Serving::Interact => "interact",
            Serving::ExploreBig => "explore_big",
            Serving::Live => "live",
        }
    }

    /// The (registered name, catalogue, query log) triples it serves.
    fn logs(self) -> Vec<(String, Catalog, Vec<String>)> {
        match self {
            Serving::Interact => {
                let catalog = pi2_workloads::catalog();
                [("covid", LogKind::Covid), ("sales", LogKind::Sales)]
                    .into_iter()
                    .map(|(name, kind)| (name.to_string(), catalog.clone(), log(kind).queries))
                    .collect()
            }
            Serving::ExploreBig | Serving::Live => vec![(
                BIG.to_string(),
                big_catalog(BIG_ROWS),
                pi2_bench::load::big_queries(),
            )],
        }
    }
}

/// Time spent in each generation stage, measured around the public call
/// of each crate.
#[derive(Debug, Clone, Default)]
pub struct GenTrace {
    /// `pi2_sql::parse_query` over the whole log (ms).
    pub parse_ms: f64,
    /// `Workload::new` (ms).
    pub workload_ms: f64,
    /// `mcts_search` (ms).
    pub mcts_ms: f64,
    /// `MappingContext::build` plus `best_interface` (ms).
    pub map_ms: f64,
}

impl GenTrace {
    /// Add another trace stage by stage.
    pub fn add(&mut self, other: &GenTrace) {
        self.parse_ms += other.parse_ms;
        self.workload_ms += other.workload_ms;
        self.mcts_ms += other.mcts_ms;
        self.map_ms += other.map_ms;
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Generate an interface the way `Pi2::generate_with` does, timing each
/// crate's call. The result is the same generation: search is
/// deterministic and this is the same sequence of public calls.
pub fn traced_generate(
    catalog: Catalog,
    sqls: &[String],
    config: &GenerationConfig,
) -> (Generation, GenTrace) {
    let mut trace = GenTrace::default();
    let t = Instant::now();
    let queries: Vec<_> = sqls
        .iter()
        .map(|s| pi2_sql::parse_query(s).expect("log queries parse"))
        .collect();
    trace.parse_ms = ms(t.elapsed());
    let t = Instant::now();
    let workload = Workload::new(queries, catalog);
    trace.workload_ms = ms(t.elapsed());
    let t = Instant::now();
    let (forest, mcts_stats) = mcts_search(&workload, &config.mcts);
    trace.mcts_ms = ms(t.elapsed());
    let t = Instant::now();
    let map = |forest: &Forest| {
        let mut ctx = MappingContext::build(forest, &workload)?;
        ctx.check_safety = config.mcts.check_safety;
        best_interface(&ctx, &config.mapping)
    };
    let (interface, cost) = map(&forest)
        .or_else(|| map(&Forest::from_workload(&workload)))
        .expect("an interface maps");
    let mapping_time = t.elapsed();
    trace.map_ms = ms(mapping_time);
    let live = Arc::new(pi2::LiveCatalog::new(workload.catalog.clone()));
    let generation = Generation {
        interface: Arc::new(interface),
        cost,
        forest: Arc::new(forest),
        workload: Arc::new(workload),
        live,
        mcts_stats,
        mapping_time,
    };
    (generation, trace)
}

/// A host's state after set-up.
pub struct Hosted {
    /// The service every request goes to.
    pub service: Arc<Pi2Service>,
    /// The registered generations, in registration order.
    pub generations: Vec<(String, Generation)>,
    /// Wall time of the cold generations (s).
    pub gen_s: f64,
    /// Per-stage generation times, when set up traced.
    pub trace: GenTrace,
}

/// Build the catalogue, generate (traced or through `generate_with`) and
/// register every interface of `workload`.
pub fn host(workload: Serving, traced: bool) -> Hosted {
    let service = Arc::new(Pi2Service::new());
    let config = gen_config();
    let mut generations = Vec::new();
    let mut gen_s = 0.0;
    let mut trace = GenTrace::default();
    for (name, catalog, sqls) in workload.logs() {
        let t = Instant::now();
        let generation = if traced {
            let (g, stages) = traced_generate(catalog, &sqls, &config);
            trace.add(&stages);
            g
        } else {
            let refs: Vec<&str> = sqls.iter().map(String::as_str).collect();
            Pi2::new(catalog)
                .generate_with(&refs, &config)
                .expect("workload log generates")
        };
        gen_s += t.elapsed().as_secs_f64();
        service
            .register_generation(&name, generation.clone())
            .expect("registration succeeds");
        generations.push((name, generation));
    }
    Hosted {
        service,
        generations,
        gen_s,
        trace,
    }
}

/// Facts about the served interfaces a client needs to build its request
/// stream. Pure functions of the generations, so a trace pass derives
/// the same facts its wire run received.
#[derive(Debug, Clone, PartialEq)]
pub struct Facts {
    /// Summed §5 cost of the served interfaces.
    pub cost: f64,
    /// Per registered workload: its name and recorded alternating cycle.
    pub cycles: Vec<(String, Vec<Event>)>,
    /// The first slider of the first interface: interaction index and
    /// integer range.
    pub slider: Option<(usize, i64, i64)>,
}

/// Derive the [`Facts`] of a host. Recording a cycle probes a scratch
/// session, which warms the memo for the cycle's states — the warm-up
/// every pass shares.
pub fn facts(hosted: &Hosted, workload: Serving) -> Facts {
    let cost = hosted.generations.iter().map(|(_, g)| g.cost).sum();
    let cycles = match workload {
        Serving::Interact => hosted
            .generations
            .iter()
            .map(|(name, g)| (name.clone(), pi2_bench::load::event_cycle(g)))
            .collect(),
        _ => Vec::new(),
    };
    let slider = hosted.generations[0]
        .1
        .interface
        .interactions
        .iter()
        .enumerate()
        .find_map(|(ix, inst)| match &inst.choice {
            InteractionChoice::Widget {
                kind: WidgetKind::Slider,
                domain: WidgetDomain::Range { min, max },
                ..
            } => Some((ix, min.ceil() as i64, max.floor() as i64)),
            _ => None,
        });
    Facts {
        cost,
        cycles,
        slider,
    }
}
