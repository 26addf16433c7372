//! Seeded inputs. Every frame the daemon receives is a pure function of
//! the command-line seed and the frame's position, so a traced replay
//! can rebuild exactly the frames an untraced run sent.

use divr_core::distance::NumericDistance;
use divr_core::engine::EngineRequest;
use divr_core::problem::ObjectiveKind;
use divr_core::relevance::AttributeRelevance;
use divr_core::Ratio;
use divr_relquery::Tuple;
use std::collections::HashSet;
use std::fmt::Write as _;

/// Tenants the warm loop cycles through.
pub const TENANTS: usize = 16;
/// Smallest and largest `k` a request asks for.
pub const K_MIN: usize = 5;
pub const K_MAX: usize = 12;
/// `warm_serve`: eight universes, `n = 240, 272, …, 464`, and the
/// number of `k` each frame asks of every objective. With one `k` per
/// objective, thread hand-offs and registry scheduling were a large
/// share of a frame, and bursts of CPU stolen by the hypervisor made
/// whole runs up to 2x slower; with four, most of a frame's time is in
/// the solvers and the exact re-score.
pub const WARM_UNIVERSES: usize = 8;
pub const WARM_KS_PER_OBJECTIVE: usize = 4;
/// `cold_large`: full-matrix size, coreset size and coreset budget.
pub const COLD_FULL_N: usize = 1200;
pub const COLD_CORESET_N: usize = 20_000;
pub const COLD_BUDGET: usize = 160;
/// `query_mutate`: base-table size and the retained universes that make
/// eager recovery a real restart cost.
pub const DB_ROWS: usize = 800;
pub const RETAINED_UNIVERSES: usize = 16;
pub const RETAINED_N: usize = 640;
/// Selection thresholds of the eight CQs `Q(x, y) :- R(x, y), y >= T`.
pub const THRESHOLDS: [i64; 8] = [10, 20, 30, 40, 50, 60, 70, 80];
/// Tableau-equivalent spellings of one CQ (`{T}` is the threshold):
/// renamed variables and a mirrored comparison.
pub const SPELLINGS: [&str; 4] = [
    "Q(x, y) :- R(x, y), y >= {T}",
    "Q(a, b) :- R(a, b), b >= {T}",
    "Q(x, y) :- R(x, y), {T} <= y",
    "Q(u, v) :- R(u, v), {T} <= v",
];
/// Every fifth `query_mutate` frame is a write (reads : writes = 4 : 1).
pub const WRITE_EVERY: usize = 5;

const ORACLES_JSON: &str = r#""relevance":{"kind":"attribute","attr":1,"default":[0,1]},"distance":{"kind":"numeric","attr":0},"lambda":[1,2]"#;

/// The oracles every universe and query uses, as the daemon decodes them.
pub fn relevance() -> AttributeRelevance {
    AttributeRelevance {
        attr: 1,
        default: Ratio::ZERO,
    }
}

pub fn distance() -> NumericDistance {
    NumericDistance {
        attr: 0,
        fallback: Ratio::ZERO,
    }
}

pub fn lambda() -> Ratio {
    Ratio::new(1, 2)
}

/// splitmix64: small, seedable, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    /// The stream for item `index` of kind `stream` under `seed`.
    pub fn derive(seed: u64, stream: u64, index: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mixed = r.next_u64() ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03);
        Rng(mixed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }

    pub fn k(&mut self) -> usize {
        K_MIN + self.below((K_MAX - K_MIN + 1) as u64) as usize
    }
}

const WARM_UNIVERSE: u64 = 1;
const WARM_FRAME: u64 = 2;
const COLD_FRAME: u64 = 3;
const RETAINED: u64 = 4;
const QUERY: u64 = 5;
const COLD_WARMUP: u64 = 6;

/// One shipped universe: rows `(x, y)`, `y` the relevance attribute and
/// `x` the distance attribute.
pub struct Universe {
    pub rows: Vec<(i64, i64)>,
    pub coreset: Option<usize>,
    pub json: String,
}

impl Universe {
    pub fn generate(rng: &mut Rng, n: usize, coreset: Option<usize>) -> Universe {
        let rows: Vec<(i64, i64)> = (0..n)
            .map(|_| (rng.below(10 * n as u64) as i64, rng.below(100) as i64))
            .collect();
        Universe::from_rows(rows, coreset)
    }

    /// The `service_load` shape the ROADMAP's re-anchor table was
    /// measured on (`n = 220`).
    pub fn anchor() -> Universe {
        let n = 220i64;
        let which = 3i64;
        let rows = (0..n)
            .map(|i| ((i * 7 + which * 13) % (3 * n), (i * 5 + which) % 29))
            .collect();
        Universe::from_rows(rows, None)
    }

    fn from_rows(rows: Vec<(i64, i64)>, coreset: Option<usize>) -> Universe {
        let mut json = String::with_capacity(rows.len() * 12 + 160);
        json.push_str(r#"{"tuples":["#);
        push_rows(&mut json, &rows);
        json.push_str("],");
        json.push_str(ORACLES_JSON);
        if let Some(budget) = coreset {
            let _ = write!(json, r#","coreset":{{"budget":{budget}}}"#);
        }
        json.push('}');
        Universe {
            rows,
            coreset,
            json,
        }
    }

    pub fn tuples(&self) -> Vec<Tuple> {
        self.rows
            .iter()
            .map(|&(x, y)| Tuple::ints([x, y]))
            .collect()
    }
}

fn push_rows(out: &mut String, rows: &[(i64, i64)]) {
    for (i, (x, y)) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{x},{y}]");
    }
}

/// All three objectives, each with its own `k`.
pub fn requests(rng: &mut Rng) -> Vec<EngineRequest> {
    ObjectiveKind::ALL
        .iter()
        .map(|&kind| EngineRequest { kind, k: rng.k() })
        .collect()
}

fn objective_name(kind: ObjectiveKind) -> &'static str {
    divr_service::wire::objective_to_str(kind)
}

fn requests_json(requests: &[EngineRequest]) -> String {
    let mut out = String::from("[");
    for (i, r) in requests.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            r#"{{"objective":"{}","k":{}}}"#,
            objective_name(r.kind),
            r.k
        );
    }
    out.push(']');
    out
}

pub fn serve_frame(tenant: usize, universe: &str, requests: &[EngineRequest]) -> Vec<u8> {
    format!(
        r#"{{"op":"serve","tenant":"tenant-{tenant:02}","universe":{universe},"requests":{}}}"#,
        requests_json(requests)
    )
    .into_bytes()
}

/// The eight `warm_serve` universes. Every seed ships the same values
/// in its own order and pairing of distance and relevance attribute:
/// solve cost depends on the values, and with values drawn per seed the
/// seed alone moved the frame rate by about 10%.
pub fn warm_universes(seed: u64) -> Vec<Universe> {
    (0..WARM_UNIVERSES)
        .map(|u| {
            let n = 240 + 32 * u;
            let mut values = Rng::derive(0, WARM_UNIVERSE, u as u64);
            let mut xs: Vec<i64> = (0..n).map(|_| values.below(10 * n as u64) as i64).collect();
            let mut ys: Vec<i64> = (0..n).map(|_| values.below(100) as i64).collect();
            let mut rng = Rng::derive(seed, WARM_UNIVERSE, u as u64);
            rng.shuffle(&mut xs);
            rng.shuffle(&mut ys);
            Universe::from_rows(xs.into_iter().zip(ys).collect(), None)
        })
        .collect()
}

/// `warm_serve` frame `i`: which universe, and the requests.
pub fn warm_frame(seed: u64, i: usize) -> (usize, Vec<EngineRequest>) {
    let mut rng = Rng::derive(seed, WARM_FRAME, i as u64);
    let u = rng.below(WARM_UNIVERSES as u64) as usize;
    let requests = (0..WARM_KS_PER_OBJECTIVE)
        .flat_map(|_| requests(&mut rng))
        .collect();
    (u, requests)
}

/// `cold_large` frame `i`: a universe never sent before. Three of every
/// four are full-matrix at `n = 1200`; the fourth is coreset mode at
/// `n = 20 000`.
pub fn cold_frame(seed: u64, i: usize) -> (Universe, Vec<EngineRequest>) {
    let mut rng = Rng::derive(seed, COLD_FRAME, i as u64);
    let universe = if i % 4 == 3 {
        Universe::generate(&mut rng, COLD_CORESET_N, Some(COLD_BUDGET))
    } else {
        Universe::generate(&mut rng, COLD_FULL_N, None)
    };
    let requests = requests(&mut rng);
    (universe, requests)
}

/// `cold_large` set-up frames: one universe per serving mode, never
/// sent again.
pub fn cold_warmup(seed: u64) -> [Universe; 2] {
    let mut rng = Rng::derive(seed, COLD_WARMUP, 0);
    [
        Universe::generate(&mut rng, COLD_FULL_N, None),
        Universe::generate(&mut rng, COLD_CORESET_N, Some(COLD_BUDGET)),
    ]
}

/// Universes the `query_mutate` data directory retains across restarts.
pub fn retained_universes(seed: u64) -> Vec<Universe> {
    (0..RETAINED_UNIVERSES)
        .map(|u| {
            let mut rng = Rng::derive(seed, RETAINED, u as u64);
            Universe::generate(&mut rng, RETAINED_N, None)
        })
        .collect()
}

pub fn query_text(query: usize, spelling: usize) -> String {
    SPELLINGS[spelling].replace("{T}", &THRESHOLDS[query].to_string())
}

/// One `query_mutate` frame.
#[derive(Clone, Debug)]
pub enum QFrame {
    Read {
        query: usize,
        spelling: usize,
        requests: Vec<EngineRequest>,
        /// `|Q(D)|` when the frame is served, from the client's mirror
        /// of `R`.
        expect_n: usize,
    },
    Write {
        insert: bool,
        row: (i64, i64),
    },
}

/// The `query_mutate` inputs: the shipped database and the whole frame
/// schedule, generated up front because each write depends on the
/// mirror state the earlier writes left.
pub struct QueryWorkload {
    pub db_json: String,
    pub db_name: String,
    pub schedule: Vec<QFrame>,
}

impl QueryWorkload {
    pub fn generate(seed: u64, frames: usize) -> QueryWorkload {
        let mut rng = Rng::derive(seed, QUERY, 0);
        let db_rows: Vec<(i64, i64)> = (0..DB_ROWS as i64)
            .map(|i| (i, rng.below(100) as i64))
            .collect();
        let mut db_json = String::from(r#"{"relations":[{"name":"R","attrs":["x","y"],"rows":["#);
        push_rows(&mut db_json, &db_rows);
        db_json.push_str("]}]}");
        let doc = divr_service::json::parse(&db_json).expect("generated database is valid JSON");
        let (db_name, _) =
            divr_service::wire::database_from_json(&doc).expect("generated database decodes");

        let mut mirror = db_rows.clone();
        let mut present: HashSet<(i64, i64)> = mirror.iter().copied().collect();
        let mut writes = 0usize;
        let mut schedule = Vec::with_capacity(frames);
        for i in 0..frames {
            if i % WRITE_EVERY == WRITE_EVERY - 1 {
                // Inserts and removals alternate, so |R| stays at 800/801.
                let insert = writes.is_multiple_of(2);
                let row = if insert {
                    let row = (100_000 + writes as i64, rng.below(100) as i64);
                    mirror.push(row);
                    present.insert(row);
                    row
                } else {
                    let at = rng.below(mirror.len() as u64) as usize;
                    let row = mirror.swap_remove(at);
                    present.remove(&row);
                    row
                };
                writes += 1;
                schedule.push(QFrame::Write { insert, row });
            } else {
                let query = rng.below(THRESHOLDS.len() as u64) as usize;
                let spelling = rng.below(SPELLINGS.len() as u64) as usize;
                let requests = requests(&mut rng);
                let expect_n = mirror.iter().filter(|r| r.1 >= THRESHOLDS[query]).count();
                schedule.push(QFrame::Read {
                    query,
                    spelling,
                    requests,
                    expect_n,
                });
            }
        }
        debug_assert_eq!(present.len(), mirror.len());
        QueryWorkload {
            db_json,
            db_name,
            schedule,
        }
    }

    /// The request bytes of frame `i`.
    pub fn frame_bytes(&self, i: usize) -> Vec<u8> {
        match &self.schedule[i] {
            QFrame::Read {
                query,
                spelling,
                requests,
                ..
            } => self.read_bytes(*query, *spelling, requests),
            QFrame::Write { insert, row } => format!(
                r#"{{"op":"mutate","tenant":"writer","database":"{}","relation":"R","action":"{}","tuple":[{},{}]}}"#,
                self.db_name,
                if *insert { "insert" } else { "remove" },
                row.0,
                row.1
            )
            .into_bytes(),
        }
    }

    pub fn read_bytes(&self, query: usize, spelling: usize, requests: &[EngineRequest]) -> Vec<u8> {
        format!(
            r#"{{"op":"query","tenant":"reader-{query}","query":"{}","database":{},{},"requests":{}}}"#,
            query_text(query, spelling),
            self.db_json,
            ORACLES_JSON,
            requests_json(requests)
        )
        .into_bytes()
    }

    pub fn writes_in(&self, frames: usize) -> usize {
        self.schedule[..frames]
            .iter()
            .filter(|f| matches!(f, QFrame::Write { .. }))
            .count()
    }
}
