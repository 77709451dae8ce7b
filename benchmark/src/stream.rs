//! Seeded request streams. A stream is a pure function of the seed and
//! the interface facts the host reports (event cycles, session ids, the
//! slider range), so the same seed always sends byte-identical bodies.

use pi2::{request_to_json, Event, Request, Table, Value};
use pi2_workloads::big::SplitMix64;

/// What a request does; reads and appends are reported apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A widget event answered with a patch.
    Read,
    /// A protocol-v2 one-row append answered with `appended`.
    Append,
}

/// One scheduled request.
#[derive(Debug, Clone, PartialEq)]
pub struct Req {
    /// When it is due, in microseconds from the start of its phase.
    pub due_us: u64,
    /// The client connection that sends it.
    pub conn: usize,
    /// Read or append.
    pub kind: Kind,
    /// The JSON request body.
    pub body: String,
}

/// A seeded supply of request bodies.
pub trait Source {
    /// The next request of the stream: its connection, kind and body.
    /// `None` when the source cannot supply another request that keeps
    /// the workload on its path.
    fn next(&mut self) -> Option<(usize, Kind, String)>;
}

/// Seeded Fisher–Yates shuffle.
pub fn shuffle<T>(rng: &mut SplitMix64, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

/// Lay `count` requests from `source` on a fixed-rate schedule: request
/// `i` is due `i / rate` seconds into the phase. Stops early if the
/// source runs dry.
pub fn schedule(source: &mut dyn Source, rate: f64, count: usize) -> Vec<Req> {
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let Some((conn, kind, body)) = source.next() else {
            break;
        };
        out.push(Req {
            due_us: (i as f64 * 1e6 / rate) as u64,
            conn,
            kind,
            body,
        });
    }
    out
}

fn event_body(session: u64, event: Event) -> String {
    request_to_json(&Request::Event { session, event })
}

/// `interact`: two connections, one session each, replaying recorded
/// alternating cycles. Requests alternate between the connections; the
/// seed picks where in its cycle each connection starts.
pub struct InteractSource {
    cycles: Vec<Vec<Event>>,
    sessions: Vec<u64>,
    pos: Vec<usize>,
    turn: usize,
}

impl InteractSource {
    /// `cycles[c]` is replayed on connection `c` over wire session
    /// `sessions[c]`.
    pub fn new(seed: u64, cycles: Vec<Vec<Event>>, sessions: Vec<u64>) -> InteractSource {
        assert_eq!(cycles.len(), sessions.len(), "one session per cycle");
        assert!(cycles.iter().all(|c| !c.is_empty()), "empty event cycle");
        let mut rng = SplitMix64::new(seed ^ 0x1A7E_5AC7);
        // Cycles are lists of alternating pairs: start on a pair boundary
        // so every replayed event changes state.
        let pos = cycles
            .iter()
            .map(|c| 2 * rng.below(c.len().div_ceil(2) as u64) as usize)
            .collect();
        let turn = rng.below(cycles.len() as u64) as usize;
        InteractSource {
            cycles,
            sessions,
            pos,
            turn,
        }
    }
}

impl Source for InteractSource {
    fn next(&mut self) -> Option<(usize, Kind, String)> {
        let c = self.turn;
        self.turn = (self.turn + 1) % self.cycles.len();
        let cycle = &self.cycles[c];
        let event = cycle[self.pos[c] % cycle.len()].clone();
        self.pos[c] += 1;
        Some((c, Kind::Read, event_body(self.sessions[c], event)))
    }
}

/// `explore_big`: one connection sweeping a slider over thresholds in a
/// seeded permutation, each used once, so every event misses the result
/// memo. Runs dry when the permutation is exhausted.
pub struct ExploreSource {
    session: u64,
    interaction: usize,
    thresholds: Vec<i64>,
    next: usize,
}

/// `φ − 1`: steps of it modulo 1 spread evenly over `[0, 1)`.
const GOLDEN: f64 = 0.618_033_988_749_894_9;

impl ExploreSource {
    /// Sweep the integer thresholds of `range` (inclusive) except
    /// `skip`, the states visited before the stream starts.
    ///
    /// The engine time of a read falls steadily with its threshold (about
    /// 22 ms at the low end of the big tier's range, 4 ms at the high
    /// end), so a shuffled sweep gave each run and each rung its own mix
    /// of work. Visit `k` instead takes the threshold whose rank among
    /// all visits is the rank of `frac(x0 + k·(φ − 1))`: every run of
    /// consecutive visits covers the range evenly, and the seed picks
    /// `x0`, which sets the order.
    pub fn new(
        seed: u64,
        session: u64,
        interaction: usize,
        range: (i64, i64),
        skip: &[i64],
    ) -> ExploreSource {
        let sorted: Vec<i64> = (range.0..=range.1).filter(|t| !skip.contains(t)).collect();
        let x0 = SplitMix64::new(seed ^ 0xE8_9105E).unit_f64();
        let point = |k: usize| (x0 + k as f64 * GOLDEN).fract();
        let mut by_point: Vec<usize> = (0..sorted.len()).collect();
        by_point.sort_by(|&a, &b| point(a).total_cmp(&point(b)));
        let mut thresholds = vec![0; sorted.len()];
        for (rank, &k) in by_point.iter().enumerate() {
            thresholds[k] = sorted[rank];
        }
        ExploreSource {
            session,
            interaction,
            thresholds,
            next: 0,
        }
    }
}

impl Source for ExploreSource {
    fn next(&mut self) -> Option<(usize, Kind, String)> {
        let t = *self.thresholds.get(self.next)?;
        self.next += 1;
        let event = Event::SetValues {
            interaction: self.interaction,
            values: vec![Value::Int(t)],
        };
        Some((0, Kind::Read, event_body(self.session, event)))
    }
}

/// `live`: slider reads on connection 0 that revisit a few seeded states
/// in turn, and every `append_every`-th request a one-row append on
/// connection 1. With at least as many reads between appends as states,
/// every state is read in every epoch.
pub struct LiveSource {
    session: u64,
    interaction: usize,
    states: Vec<i64>,
    current: usize,
    append_every: usize,
    workload: String,
    table: String,
    pool: Table,
    count: usize,
    rng: SplitMix64,
}

impl LiveSource {
    /// `states` are the thresholds reads visit in turn; appended rows are
    /// seeded variations of rows drawn from `pool`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        seed: u64,
        session: u64,
        interaction: usize,
        states: Vec<i64>,
        append_every: usize,
        workload: &str,
        table: &str,
        pool: Table,
    ) -> LiveSource {
        assert!(states.len() >= 2, "reads need two states to move between");
        assert!(
            append_every > states.len(),
            "every state must be read between two appends"
        );
        LiveSource {
            session,
            interaction,
            current: states.len() - 1,
            states,
            append_every,
            workload: workload.to_string(),
            table: table.to_string(),
            pool,
            count: 0,
            rng: SplitMix64::new(seed ^ 0x11FE),
        }
    }

    /// A seeded one-row delta shaped like `covid_big`: a pool row with
    /// fresh `cases` and `deaths`.
    fn delta(&mut self) -> Table {
        let row_ix = self.rng.below(self.pool.num_rows() as u64) as usize;
        let schema: Vec<(&str, pi2::DataType)> = self
            .pool
            .schema
            .columns
            .iter()
            .map(|c| (c.name.as_str(), c.dtype))
            .collect();
        let cases = self.rng.below(60_000) as i64;
        let deaths = cases / 50 + self.rng.below(20) as i64;
        let row: Vec<Value> = (0..schema.len())
            .map(|c| match schema[c].0 {
                "cases" => Value::Int(cases),
                "deaths" => Value::Int(deaths),
                _ => self.pool.value(row_ix, c),
            })
            .collect();
        Table::from_rows(schema, vec![row]).expect("pool schema builds a row")
    }
}

impl Source for LiveSource {
    fn next(&mut self) -> Option<(usize, Kind, String)> {
        self.count += 1;
        if self.count.is_multiple_of(self.append_every) {
            let rows = self.delta();
            let body = request_to_json(&Request::Append {
                workload: self.workload.clone(),
                table: self.table.clone(),
                rows,
            });
            return Some((1, Kind::Append, body));
        }
        self.current = (self.current + 1) % self.states.len();
        let event = Event::SetValues {
            interaction: self.interaction,
            values: vec![Value::Int(self.states[self.current])],
        };
        Some((0, Kind::Read, event_body(self.session, event)))
    }
}
