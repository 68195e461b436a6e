//! End-to-end tests of the serving subsystem: qc property tests pinning
//! the engine, under concurrent callers, to a dense-reconstruction
//! oracle (bit-identical),
//! tie-handling and degenerate-model cases, the TCP loopback path with
//! typed errors, and steady-state allocation certification through the
//! probe schema-v5 `serve` counters.

use splatt::rt::qc::{self, Gen};
use splatt::serve::protocol::{Response, WireError};
use splatt::serve::{
    serve, Client, Query, QueryResult, ServableModel, ServeConfig, ServeEngine, ServeError,
};
use splatt::{CancelToken, KruskalModel, Matrix};
use std::sync::Arc;
use std::time::Duration;

/// A random small model of the given order (dims 1..=6, rank 1..=4).
fn gen_model(g: &mut Gen, order: usize) -> KruskalModel {
    let rank = g.usize_in(1..5);
    let factors: Vec<Matrix> = (0..order)
        .map(|m| Matrix::random(g.usize_in(1..7), rank, g.u64().wrapping_add(m as u64)))
        .collect();
    KruskalModel {
        lambda: g.f64_vec(rank, -2.0, 2.0),
        factors,
    }
}

/// Dense-oracle slice fixing `mode` at `index`: free modes in increasing
/// mode order, last free mode fastest (row-major) — every value computed
/// through `KruskalModel::value_at`, the same association order the
/// kernels use, so comparisons can demand bit identity.
fn oracle_slice(model: &KruskalModel, mode: usize, index: u32) -> Vec<f64> {
    let order = model.order();
    let free: Vec<usize> = (0..order).filter(|&m| m != mode).collect();
    let dims: Vec<usize> = free.iter().map(|&m| model.factors[m].rows()).collect();
    let total: usize = dims.iter().product();
    let mut coord = vec![0u32; order];
    coord[mode] = index;
    let mut odo = vec![0usize; free.len()];
    let mut out = Vec::with_capacity(total);
    for _ in 0..total {
        for (j, &m) in free.iter().enumerate() {
            coord[m] = odo[j] as u32;
        }
        out.push(model.value_at(&coord));
        for j in (0..odo.len()).rev() {
            odo[j] += 1;
            if odo[j] < dims[j] {
                break;
            }
            odo[j] = 0;
        }
    }
    out
}

/// Dense-oracle top-k: score every index along `mode`, descending score,
/// ascending index on ties.
fn oracle_topk(model: &KruskalModel, mode: usize, k: usize, fixed: &[u32]) -> Vec<(u32, f64)> {
    let order = model.order();
    let dim = model.factors[mode].rows();
    let mut coord = vec![0u32; order];
    let mut fx = fixed.iter();
    for (m, c) in coord.iter_mut().enumerate() {
        if m != mode {
            *c = *fx.next().unwrap();
        }
    }
    let mut scored: Vec<(u32, f64)> = (0..dim)
        .map(|i| {
            coord[mode] = i as u32;
            (i as u32, model.value_at(&coord))
        })
        .collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    scored.truncate(k.min(dim));
    scored
}

fn assert_bits_eq(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}: value {i} differs ({g} vs {w})"
        );
    }
}

/// A random coordinate inside the model, as u32s.
fn gen_coord(g: &mut Gen, model: &KruskalModel) -> Vec<u32> {
    model
        .factors
        .iter()
        .map(|f| g.usize_in(0..f.rows()) as u32)
        .collect()
}

#[test]
fn concurrent_queries_match_dense_oracle_orders_3_to_5() {
    qc::check("concurrent queries match dense oracle", 20, |g| {
        let order = g.usize_in(3..6);
        let model = gen_model(g, order);
        let callers = g.usize_in(1..5);
        let engine = ServeEngine::start(ServeConfig {
            cache_capacity: if g.bool() { 16 } else { 0 },
            ..Default::default()
        });
        engine.publish("m", model.clone());

        // A burst of mixed queries, dealt round-robin to the callers,
        // which all run at once against the one engine.
        enum Expect {
            Entries(Vec<f64>),
            Slice(Vec<f64>),
            TopK(Vec<(u32, f64)>),
        }
        let mut burst: Vec<(Query, Expect)> = Vec::new();
        for _ in 0..g.usize_in(4..24) {
            burst.push(match g.usize_in(0..3) {
                0 => {
                    let tuples = g.usize_in(1..4);
                    let coords: Vec<u32> = (0..tuples).flat_map(|_| gen_coord(g, &model)).collect();
                    let want: Vec<f64> = coords
                        .chunks_exact(order)
                        .map(|c| model.value_at(c))
                        .collect();
                    (Query::Entry { coords }, Expect::Entries(want))
                }
                1 => {
                    let mode = g.usize_in(0..order);
                    let index = g.usize_in(0..model.factors[mode].rows()) as u32;
                    let want = oracle_slice(&model, mode, index);
                    (
                        Query::Slice {
                            mode: mode as u8,
                            index,
                        },
                        Expect::Slice(want),
                    )
                }
                _ => {
                    let mode = g.usize_in(0..order);
                    let k = g.usize_in(1..8);
                    let mut fixed = gen_coord(g, &model);
                    fixed.remove(mode);
                    let want = oracle_topk(&model, mode, k, &fixed);
                    (
                        Query::TopK {
                            mode: mode as u8,
                            k: k as u32,
                            fixed,
                        },
                        Expect::TopK(want),
                    )
                }
            });
        }
        std::thread::scope(|scope| {
            for caller in 0..callers {
                let (engine, burst) = (&engine, &burst);
                scope.spawn(move || {
                    let root = CancelToken::new();
                    for (query, expect) in burst.iter().skip(caller).step_by(callers) {
                        let got = engine
                            .query("m", 0, query.clone(), None, &root, || false)
                            .expect("query should succeed");
                        match (got, expect) {
                            (QueryResult::Entries(got), Expect::Entries(want)) => {
                                assert_bits_eq(&got, want, "entry");
                            }
                            (QueryResult::Slice(got), Expect::Slice(want)) => {
                                assert_bits_eq(&got, want, "slice");
                            }
                            (QueryResult::TopK(got), Expect::TopK(want)) => {
                                assert_eq!(got.len(), want.len(), "top-k length");
                                for (g_pair, w_pair) in got.iter().zip(want) {
                                    assert_eq!(g_pair.0, w_pair.0, "top-k index");
                                    assert_eq!(
                                        g_pair.1.to_bits(),
                                        w_pair.1.to_bits(),
                                        "top-k score"
                                    );
                                }
                            }
                            _ => panic!("result kind does not match query kind"),
                        }
                    }
                });
            }
        });
        engine.shutdown();
    });
}

// ---- scan kernels vs the per-cell oracle, at the shapes the blocking cares about ----

/// A factor whose rows exercise everything a multiply or an add can
/// meet: most rows finite (with signed zeros among them), about one row
/// in five carrying an infinity or a NaN, and some rows exact copies of
/// others so that scores tie.
///
/// The NaN entries carry the bit pattern this machine's own arithmetic
/// produces for ∞ − ∞ and 0 · ∞, so one NaN pattern circulates. When two
/// *different* NaNs meet in one operation, IEEE 754 leaves the surviving
/// payload open and x86 takes the first operand's — an operand order the
/// compiler picks per call site, so there `kruskal_value` is not
/// bit-determined even against itself.
fn gen_edgy_factor(g: &mut Gen, rows: usize, rank: usize) -> Matrix {
    use std::hint::black_box;
    const ZEROS: [f64; 2] = [0.0, -0.0];
    let machine_nan = black_box(f64::INFINITY) - black_box(f64::INFINITY);
    assert!(machine_nan.is_nan());
    let non_finite = [f64::INFINITY, f64::NEG_INFINITY, machine_nan];
    let mut data = Vec::with_capacity(rows * rank);
    for _ in 0..rows {
        let wild = g.usize_in(0..5) == 0;
        for _ in 0..rank {
            data.push(match g.usize_in(0..12) {
                0 => *g.choose(&ZEROS),
                1 if wild => *g.choose(&non_finite),
                _ => g.f64_in(-2.0, 2.0),
            });
        }
    }
    for _ in 0..rows / 3 {
        let (from, to) = (g.usize_in(0..rows), g.usize_in(0..rows));
        data.copy_within(from * rank..(from + 1) * rank, to * rank);
    }
    Matrix::from_vec(rows, rank, data)
}

fn assert_pairs_eq(got: &[(u32, f64)], want: &[(u32, f64)], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            (g.0, g.1.to_bits()),
            (w.0, w.1.to_bits()),
            "{what}: pair {i} differs ({g:?} vs {w:?})"
        );
    }
}

#[test]
fn scan_kernels_match_the_per_cell_oracle_bit_for_bit() {
    use splatt::core::query::{
        slice_len, slice_values, slice_values_with_panels, top_k, top_k_with_panels, LanePanels,
        QueryArena, LANES,
    };
    use splatt::core::reference::kruskal_value;

    const RANKS: [usize; 9] = [0, 1, 3, 4, 5, 15, 16, 17, 35];
    // Dimensions on both sides of the four-cell block. Every mode gets a
    // small one except one per case, which gets a long one — each in
    // turn, among them the edges of a lane-panel block — so a whole slice
    // stays a few thousand cells.
    const SHORT: [usize; 4] = [1, 3, 4, 5];
    const LONG: [usize; 7] = [5, 9, 130, LANES - 1, LANES, LANES + 1, 2 * LANES + 3];

    let mut g = Gen::from_seed(0x5ca9_0018);
    // One arena for the whole sweep: every call inherits the previous
    // call's scratch, whatever its shape was.
    let mut arena = QueryArena::new();
    let mut case = 0usize;
    for order in 1..=5usize {
        for (rank, long) in RANKS.into_iter().flat_map(|r| LONG.map(|l| (r, l))) {
            case += 1;
            let long_mode = case % order;
            let dims: Vec<usize> = (0..order)
                .map(|m| {
                    if m == long_mode {
                        long
                    } else {
                        SHORT[(case + m) % SHORT.len()]
                    }
                })
                .collect();
            let mut lambda = g.f64_vec(rank, -2.0, 2.0);
            if rank > 2 {
                lambda[g.usize_in(0..rank)] = -0.0;
            }
            let model = KruskalModel {
                lambda,
                factors: dims
                    .iter()
                    .map(|&d| gen_edgy_factor(&mut g, d, rank))
                    .collect(),
            };
            // Each model's own panels, laid out by its first scans below.
            let panels = LanePanels::new(order);
            let value = |coord: &[u32]| kruskal_value(&model.lambda, &model.factors, coord);
            let what = format!("order {order} rank {rank} dims {dims:?}");

            for mode in 0..order {
                // -- top-k over every row
                let fixed: Vec<u32> = (0..order)
                    .filter(|&m| m != mode)
                    .map(|m| g.usize_in(0..dims[m]) as u32)
                    .collect();
                let mut coord = fixed.clone();
                coord.insert(mode, 0);
                let mut ranked: Vec<(u32, f64)> = (0..dims[mode] as u32)
                    .map(|i| {
                        coord[mode] = i;
                        (i, value(&coord))
                    })
                    .collect();
                ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
                let n = ranked.len();
                for k in [0, 1, n.saturating_sub(1), n, n + 7] {
                    let mut got = Vec::new();
                    top_k(&model, mode, k, &fixed, &mut arena, &mut got).unwrap();
                    assert_pairs_eq(
                        &got,
                        &ranked[..k.min(n)],
                        &format!("{what}: top-{k} of mode {mode}"),
                    );
                    got.clear();
                    top_k_with_panels(&model, &panels, mode, k, &fixed, &mut arena, &mut got)
                        .unwrap();
                    assert_pairs_eq(
                        &got,
                        &ranked[..k.min(n)],
                        &format!("{what}: top-{k} of mode {mode} over panels"),
                    );
                }

                // -- slice
                let index = g.usize_in(0..dims[mode]) as u32;
                let want = oracle_slice(&model, mode, index);
                let mut got = vec![f64::NAN; slice_len(&model, mode).unwrap()];
                slice_values(&model, mode, index, &mut arena, &mut got).unwrap();
                assert_bits_eq(&got, &want, &format!("{what}: slice of mode {mode}"));
                got.fill(f64::NAN);
                slice_values_with_panels(&model, &panels, mode, index, &mut arena, &mut got)
                    .unwrap();
                assert_bits_eq(
                    &got,
                    &want,
                    &format!("{what}: slice of mode {mode} over panels"),
                );
            }
        }
    }
}

/// Held by the timing tests, so that one does not time the other's load.
static TIMING: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// The blocked scan plus bounded selection against what they replaced —
/// one `kruskal_value` per row and a sort of every row — as a ratio on
/// the same box, same run. Release only: a debug build times the
/// optimizer's absence.
#[test]
fn top_k_beats_the_per_cell_full_sort_oracle_threefold() {
    if cfg!(debug_assertions) {
        return;
    }
    let _timing = TIMING
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    use splatt::core::query::{top_k, QueryArena};
    let model = KruskalModel {
        lambda: (0..16).map(|r| 0.5 + r as f64 * 0.1).collect(),
        factors: vec![
            Matrix::random(16_384, 16, 1),
            Matrix::random(8, 16, 2),
            Matrix::random(8, 16, 3),
        ],
    };
    let mut arena = QueryArena::new();
    let quietest = |run: &mut dyn FnMut() -> Vec<(u32, f64)>| {
        (0..15)
            .map(|_| {
                let started = std::time::Instant::now();
                let answer = std::hint::black_box(run());
                (started.elapsed(), answer)
            })
            .min_by_key(|(elapsed, _)| *elapsed)
            .expect("15 repetitions")
    };
    let (kernel, got) = quietest(&mut || {
        let mut out = Vec::new();
        top_k(&model, 0, 10, &[3, 5], &mut arena, &mut out).unwrap();
        out
    });
    let (oracle, want) = quietest(&mut || oracle_topk(&model, 0, 10, &[3, 5]));
    assert_pairs_eq(&got, &want, "top-10 of 16384");
    let ratio = oracle.as_secs_f64() / kernel.as_secs_f64();
    println!("top_k {kernel:?}, per-cell + full sort {oracle:?}, ratio {ratio:.1}");
    assert!(
        ratio >= 3.0,
        "top_k ({kernel:?}) must be at least 3x the per-cell oracle ({oracle:?}), got {ratio:.2}x"
    );
}

/// Scoring through lane panels against scoring through factor rows: one
/// scan of a 16 384 × 16 factor (a slice of an order-2 model, so no
/// selection is timed), same answer to the bit, as a ratio on the same
/// box, same run. Release only.
#[test]
fn scans_over_lane_panels_beat_scans_over_rows() {
    if cfg!(debug_assertions) {
        return;
    }
    let _timing = TIMING
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    use splatt::core::query::{slice_values, slice_values_with_panels, LanePanels, QueryArena};
    let model = KruskalModel {
        lambda: (0..16).map(|r| 0.5 + r as f64 * 0.1).collect(),
        factors: vec![Matrix::random(16_384, 16, 1), Matrix::random(8, 16, 2)],
    };
    let panels = LanePanels::new(2);
    let mut arena = QueryArena::new();
    let (mut want, mut got) = (vec![0.0; 16_384], vec![0.0; 16_384]);
    // The two forms alternate, so a burst of load elsewhere on the box
    // lands on both; the quietest of each is compared.
    let (mut rows, mut lanes) = (Duration::MAX, Duration::MAX);
    for _ in 0..31 {
        let started = std::time::Instant::now();
        slice_values(&model, 1, 3, &mut arena, &mut want).unwrap();
        rows = rows.min(std::hint::black_box(started.elapsed()));
        let started = std::time::Instant::now();
        // the first repetition lays the panel out
        slice_values_with_panels(&model, &panels, 1, 3, &mut arena, &mut got).unwrap();
        lanes = lanes.min(std::hint::black_box(started.elapsed()));
    }
    assert_bits_eq(&got, &want, "scan of 16384 over panels");
    let ratio = rows.as_secs_f64() / lanes.as_secs_f64();
    println!("scan over rows {rows:?}, over lane panels {lanes:?}, ratio {ratio:.2}");
    assert!(
        ratio >= 1.4,
        "a scan over lane panels ({lanes:?}) must be at least 1.4x one over rows ({rows:?}), \
         got {ratio:.2}x"
    );
}

#[test]
fn top_k_breaks_ties_by_ascending_index() {
    // Rank-1 model whose mode-0 column is constant: every index along
    // mode 0 scores identically, so top-k must come back 0,1,2,...
    let model = KruskalModel {
        lambda: vec![2.0],
        factors: vec![
            Matrix::from_vec(5, 1, vec![0.5; 5]),
            Matrix::from_vec(3, 1, vec![1.0, 2.0, 3.0]),
        ],
    };
    let engine = ServeEngine::start(ServeConfig::default());
    engine.publish("ties", model);
    let root = CancelToken::new();
    let got = engine
        .query(
            "ties",
            0,
            Query::TopK {
                mode: 0,
                k: 4,
                fixed: vec![1],
            },
            None,
            &root,
            || false,
        )
        .expect("top-k should succeed");
    match got {
        QueryResult::TopK(pairs) => {
            let indices: Vec<u32> = pairs.iter().map(|p| p.0).collect();
            assert_eq!(indices, vec![0, 1, 2, 3], "ties must resolve ascending");
        }
        other => panic!("expected top-k, got {other:?}"),
    }
    engine.shutdown();
}

#[test]
fn empty_and_singleton_models_serve_without_panicking() {
    // Rank-0 "empty" model: every reconstruction is an empty sum = 0.0.
    let empty = KruskalModel {
        lambda: vec![],
        factors: vec![
            Matrix::zeros(3, 0),
            Matrix::zeros(2, 0),
            Matrix::zeros(4, 0),
        ],
    };
    // All-singleton dims at rank 1.
    let singleton = KruskalModel {
        lambda: vec![3.0],
        factors: vec![
            Matrix::from_vec(1, 1, vec![0.5]),
            Matrix::from_vec(1, 1, vec![4.0]),
        ],
    };
    let engine = ServeEngine::start(ServeConfig::default());
    engine.publish("empty", empty.clone());
    engine.publish("one", singleton.clone());
    let root = CancelToken::new();

    match engine
        .query(
            "empty",
            0,
            Query::Slice { mode: 1, index: 0 },
            None,
            &root,
            || false,
        )
        .expect("empty-model slice should succeed")
    {
        QueryResult::Slice(vals) => {
            assert_eq!(vals.len(), 12, "3x4 free block");
            // An empty rank sum is std's empty f64 sum — compare bits to
            // the same oracle, not to a hardcoded +0.0.
            let want = oracle_slice(&empty, 1, 0);
            assert_bits_eq(&vals, &want, "empty slice");
        }
        other => panic!("expected slice, got {other:?}"),
    }

    match engine
        .query(
            "one",
            0,
            Query::TopK {
                mode: 0,
                k: 10,
                fixed: vec![0],
            },
            None,
            &root,
            || false,
        )
        .expect("singleton top-k should succeed")
    {
        QueryResult::TopK(pairs) => {
            assert_eq!(pairs.len(), 1, "k clamps to the dimension");
            assert_eq!(pairs[0].0, 0);
            assert_eq!(pairs[0].1.to_bits(), singleton.value_at(&[0, 0]).to_bits());
        }
        other => panic!("expected top-k, got {other:?}"),
    }

    match engine
        .query(
            "empty",
            0,
            Query::Entry {
                coords: vec![0, 0, 0, 2, 1, 3],
            },
            None,
            &root,
            || false,
        )
        .expect("empty-model entries should succeed")
    {
        QueryResult::Entries(vals) => assert_eq!(vals, vec![0.0, 0.0]),
        other => panic!("expected entries, got {other:?}"),
    }
    engine.shutdown();
}

fn demo_engine() -> Arc<ServeEngine> {
    let engine = ServeEngine::start(ServeConfig {
        cache_capacity: 32,
        ..Default::default()
    });
    let model = KruskalModel {
        lambda: vec![1.5, -0.25, 0.75],
        factors: vec![
            Matrix::random(6, 3, 11),
            Matrix::random(5, 3, 12),
            Matrix::random(4, 3, 13),
        ],
    };
    engine.publish("demo", model);
    engine
}

#[test]
fn tcp_loopback_answers_match_oracle_and_errors_are_typed() {
    let engine = demo_engine();
    let model = engine.registry().get("demo", 0).unwrap().model.clone();
    let handle = serve(engine, "127.0.0.1:0").expect("bind loopback");
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");

    // Entries are bit-identical to the dense oracle across the wire.
    let coords = vec![0, 0, 0, 5, 4, 3, 2, 1, 0];
    match client.entries("demo", 0, 0, 3, coords.clone()).unwrap() {
        Response::Entries(vals) => {
            let want: Vec<f64> = coords.chunks_exact(3).map(|c| model.value_at(c)).collect();
            assert_bits_eq(&vals, &want, "wire entries");
        }
        other => panic!("expected entries, got {other:?}"),
    }

    // Slices too.
    match client.slice("demo", 0, 0, 1, 2).unwrap() {
        Response::Slice(vals) => assert_bits_eq(&vals, &oracle_slice(&model, 1, 2), "wire slice"),
        other => panic!("expected slice, got {other:?}"),
    }

    // Top-k with ties handled like the oracle.
    match client.top_k("demo", 0, 0, 2, 3, vec![1, 1]).unwrap() {
        Response::TopK(pairs) => {
            let want = oracle_topk(&model, 2, 3, &[1, 1]);
            assert_eq!(pairs, want);
        }
        other => panic!("expected top-k, got {other:?}"),
    }

    // Unknown model -> typed ModelNotFound, connection stays usable.
    match client.slice("nope", 0, 0, 0, 0).unwrap() {
        Response::Error(WireError::ModelNotFound, _) => {}
        other => panic!("expected ModelNotFound, got {other:?}"),
    }

    // Bad mode -> typed BadRequest.
    match client.slice("demo", 0, 0, 9, 0).unwrap() {
        Response::Error(WireError::BadRequest, _) => {}
        other => panic!("expected BadRequest, got {other:?}"),
    }

    // List and stats still answer on the same connection.
    match client.list().unwrap() {
        Response::Models(models) => {
            assert_eq!(models.len(), 1);
            assert_eq!(models[0].name, "demo");
            assert_eq!(models[0].order, 3);
            assert_eq!(models[0].rank, 3);
        }
        other => panic!("expected model list, got {other:?}"),
    }
    match client.stats().unwrap() {
        Response::Stats(json) => {
            assert!(
                json.contains(&format!(
                    "\"schema\": \"{}\"",
                    splatt::probe::PROFILE_SCHEMA
                )),
                "{json}"
            );
            assert!(json.contains("\"serve\": {"), "{json}");
        }
        other => panic!("expected stats, got {other:?}"),
    }

    // Wire shutdown: acked, then the server drains and joins cleanly.
    match client.shutdown().unwrap() {
        Response::Ack => {}
        other => panic!("expected ack, got {other:?}"),
    }
    handle.join();
}

/// What a running server answers to `Stats` has, section by section,
/// the key set of the committed golden profile: the live rows and the
/// pinned document come off the same counter declarations.
#[test]
fn live_stats_reply_has_the_golden_key_set_in_every_section() {
    use splatt::probe::json::{parse, Value};
    let golden = parse(include_str!(
        "../crates/splatt-probe/testdata/profile_v16.json"
    ))
    .expect("golden parses");
    let handle = serve(demo_engine(), "127.0.0.1:0").expect("bind loopback");
    let mut client = Client::connect(handle.addr().to_string()).expect("connect");
    // One answered query, so `serve.kinds` has a row to compare.
    let reply = client.entries("demo", 0, 0, 3, vec![0, 0, 0]).unwrap();
    assert!(matches!(reply, Response::Entries(_)), "{reply:?}");
    let Response::Stats(text) = client.stats().unwrap() else {
        panic!("expected a stats reply");
    };
    let live = parse(&text).expect("stats reply parses");

    fn keys(section: &Value) -> Vec<String> {
        let members = section.as_object().expect("a JSON object");
        members.keys().cloned().collect()
    }
    let sections = |doc: &Value| {
        let serve = doc.get("serve").unwrap();
        let kinds = serve.get("kinds").unwrap().as_array().unwrap();
        vec![
            ("top level", keys(doc)),
            ("locks", keys(doc.get("locks").unwrap())),
            ("alloc", keys(doc.get("alloc").unwrap())),
            ("serve", keys(serve)),
            ("serve.kinds[0]", keys(&kinds[0])),
            ("serve.net", keys(serve.get("net").unwrap())),
        ]
    };
    assert_eq!(sections(&live), sections(&golden));
    // A server with no run to report leaves those sections null.
    for absent in ["guard", "store", "refresh"] {
        assert_eq!(live.get(absent), Some(&Value::Null), "{absent}");
    }
    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn deadline_expired_requests_are_typed_not_hung() {
    let engine = demo_engine();
    let handle = serve(Arc::clone(&engine), "127.0.0.1:0").expect("bind loopback");
    let mut client = Client::connect(handle.addr().to_string()).expect("connect");
    // A 1 ms deadline on a cold engine is sometimes passed before the
    // answer is ready; either outcome must be a typed answer.
    let started = std::time::Instant::now();
    let resp = client.slice("demo", 0, 1, 0, 1).unwrap();
    assert!(
        matches!(
            resp,
            Response::Slice(_) | Response::Error(WireError::DeadlineExpired, _)
        ),
        "got {resp:?}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "deadline-bounded request must not hang"
    );
    handle.shutdown();
}

#[test]
fn steady_state_queries_are_allocation_free_after_warmup() {
    let engine = ServeEngine::start(ServeConfig {
        ntasks: 2,
        cache_capacity: 0, // force every query through the kernels
        ..Default::default()
    });
    let model = KruskalModel {
        lambda: vec![1.0, 2.0],
        factors: vec![
            Matrix::random(8, 2, 21),
            Matrix::random(7, 2, 22),
            Matrix::random(6, 2, 23),
        ],
    };
    engine.publish("m", model);
    let root = CancelToken::new();
    let run_mix = |rounds: usize| {
        for i in 0..rounds {
            let mode = (i % 3) as u8;
            engine
                .query(
                    "m",
                    0,
                    Query::Slice {
                        mode,
                        index: (i % 6) as u32,
                    },
                    None,
                    &root,
                    || false,
                )
                .expect("slice");
            engine
                .query(
                    "m",
                    0,
                    Query::TopK {
                        mode,
                        k: 4,
                        fixed: vec![0; 2],
                    },
                    None,
                    &root,
                    || false,
                )
                .expect("top-k");
        }
    };
    run_mix(12); // warm-up: arenas grow to their high-water marks
    let warm = engine
        .profile_report()
        .serve
        .expect("serve row")
        .arena_growth_allocs;
    run_mix(25); // steady state: the same shapes again
    let after = engine
        .profile_report()
        .serve
        .expect("serve row")
        .arena_growth_allocs;
    assert_eq!(
        warm, after,
        "query arenas must not grow after warm-up (probe v5 certification)"
    );
    engine.shutdown();
}

// ---- graceful drain (shutdown must not drop admitted work) ----

#[test]
fn shutdown_drains_queued_queries_instead_of_dropping_them() {
    // Every caller stops inside `poll_abort`, which the engine asks after
    // admission with the permit held: all of them are admitted before
    // shutdown trips and compute after it, whatever the kernel's speed.
    const CALLERS: usize = 4;
    let model = KruskalModel {
        lambda: vec![1.0; 32],
        factors: vec![
            Matrix::random(2, 32, 61),
            Matrix::random(80, 32, 62),
            Matrix::random(50, 32, 63),
        ],
    };
    let engine = ServeEngine::start(ServeConfig {
        cache_capacity: 0, // every caller computes
        ..Default::default()
    });
    engine.publish("slow", model.clone());
    let query = Query::Slice { mode: 0, index: 1 };
    let (admitted, released) = (
        std::sync::Barrier::new(CALLERS + 1),
        std::sync::Barrier::new(CALLERS + 1),
    );
    let answers = std::thread::scope(|scope| {
        let callers: Vec<_> = (0..CALLERS)
            .map(|_| {
                let (engine, query) = (&engine, &query);
                let (admitted, released) = (&admitted, &released);
                scope.spawn(move || {
                    let root = CancelToken::new();
                    engine.query("slow", 0, query.clone(), None, &root, || {
                        admitted.wait();
                        released.wait();
                        false
                    })
                })
            })
            .collect();
        admitted.wait();
        assert_eq!(
            engine.gate().depth(),
            CALLERS,
            "every caller holds a permit"
        );
        engine.shutdown();
        released.wait();
        let answers: Vec<_> = callers.into_iter().map(|c| c.join().unwrap()).collect();
        answers
    });
    let want = oracle_slice(&model, 0, 1);
    for answer in answers {
        match answer {
            Ok(QueryResult::Slice(vals)) => assert_bits_eq(&vals, &want, "drained slice"),
            other => panic!("expected drained answer, got {other:?}"),
        }
    }
    // After shutdown a new query is refused typed, immediately.
    let root = CancelToken::new();
    match engine.query("slow", 0, query, None, &root, || false) {
        Err(ServeError::ShuttingDown) => {}
        other => panic!("expected ShuttingDown, got {other:?}"),
    }
}

#[test]
fn open_connections_get_complete_frames_across_shutdown() {
    let engine = demo_engine();
    let model = engine.registry().get("demo", 0).unwrap().model.clone();
    let handle = serve(Arc::clone(&engine), "127.0.0.1:0").expect("bind loopback");
    let addr = handle.addr().to_string();
    let mut clients: Vec<Client> = (0..4).map(|_| Client::connect(&addr).unwrap()).collect();
    // Every connection completes a query first, so all four are live
    // inside the server when shutdown trips.
    for client in clients.iter_mut() {
        match client.slice("demo", 0, 0, 1, 0).unwrap() {
            Response::Slice(vals) => assert_bits_eq(&vals, &oracle_slice(&model, 1, 0), "warm"),
            other => panic!("expected slice, got {other:?}"),
        }
    }
    handle.request_shutdown();
    // A racing request either gets a *complete* frame (a drained answer,
    // bit-identical, or typed ShuttingDown) or a clean connection close —
    // never a torn half-written frame, which would decode as garbage.
    for (i, client) in clients.iter_mut().enumerate() {
        let index = (i % 5) as u32;
        match client.slice("demo", 0, 0, 1, index) {
            Ok(Response::Slice(vals)) => {
                assert_bits_eq(
                    &vals,
                    &oracle_slice(&model, 1, index),
                    "post-shutdown slice",
                );
            }
            Ok(Response::Error(WireError::ShuttingDown, _)) => {}
            Ok(other) => panic!("expected slice or ShuttingDown, got {other:?}"),
            Err(_) => {} // clean close: the conn thread had already exited
        }
    }
    handle.join();
}

// ---- registry evict racing a query storm ----

#[test]
fn evicted_version_never_yields_stale_hits_or_torn_reads() {
    qc::check("evict during query storm", 8, |g| {
        let engine = ServeEngine::start(ServeConfig {
            cache_capacity: 32,
            ..Default::default()
        });
        let v1 = gen_model(g, 3);
        // v2 shares v1's shapes (the storm's slice indices must be valid
        // for both versions) but carries different values, so a stale v1
        // answer on a v2-pinned query cannot pass the bit check.
        let v2 = KruskalModel {
            lambda: g.f64_vec(v1.rank(), -2.0, 2.0),
            factors: v1
                .factors
                .iter()
                .map(|f| Matrix::random(f.rows(), f.cols(), g.u64().wrapping_add(1000)))
                .collect(),
        };
        assert_eq!(engine.publish("m", v1.clone()), 1);
        assert_eq!(engine.publish("m", v2.clone()), 2);
        // Pre-generate the storm workload: Gen stays on this thread.
        let slices: Vec<u32> = (0..64)
            .map(|_| g.usize_in(0..v1.factors[1].rows()) as u32)
            .collect();

        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            let storm = |pin_version: u64, oracle: &'static str| {
                let engine = Arc::clone(&engine);
                let slices = slices.clone();
                let stop = &stop;
                let v1 = &v1;
                let v2 = &v2;
                move || {
                    let root = CancelToken::new();
                    let mut i = 0usize;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let index = slices[i % slices.len()];
                        i += 1;
                        let got = engine.query(
                            "m",
                            pin_version,
                            Query::Slice { mode: 1, index },
                            None,
                            &root,
                            || false,
                        );
                        match got {
                            Ok(QueryResult::Slice(vals)) => {
                                // Any answer must be the pinned version's,
                                // bit for bit — a v2 value on a v1 query
                                // (or vice versa) is a stale or torn read.
                                let model = if pin_version == 1 { v1 } else { v2 };
                                assert_bits_eq(&vals, &oracle_slice(model, 1, index), oracle);
                            }
                            Err(ServeError::ModelNotFound { version, .. }) => {
                                assert_eq!(version, 1, "only the evicted version may vanish");
                            }
                            other => panic!("unexpected storm outcome: {other:?}"),
                        }
                    }
                }
            };
            let t1 = scope.spawn(storm(1, "pinned v1"));
            let t2 = scope.spawn(storm(2, "pinned v2"));
            std::thread::sleep(Duration::from_millis(10));
            assert_eq!(engine.evict("m", 1), 1, "evict v1 mid-storm");
            std::thread::sleep(Duration::from_millis(10));
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            t1.join().unwrap();
            t2.join().unwrap();
        });
        // After the evict settles, v1 is gone for good (no cache
        // resurrection) and v2 still answers bit-identically.
        let root = CancelToken::new();
        match engine.query(
            "m",
            1,
            Query::Slice {
                mode: 1,
                index: slices[0],
            },
            None,
            &root,
            || false,
        ) {
            Err(ServeError::ModelNotFound { version: 1, .. }) => {}
            other => panic!("evicted version must stay gone, got {other:?}"),
        }
        match engine.query(
            "m",
            2,
            Query::Slice {
                mode: 1,
                index: slices[0],
            },
            None,
            &root,
            || false,
        ) {
            Ok(QueryResult::Slice(vals)) => {
                assert_bits_eq(&vals, &oracle_slice(&v2, 1, slices[0]), "v2 after evict");
            }
            other => panic!("surviving version must answer, got {other:?}"),
        }
        engine.shutdown();
    });
}

// ---- lane panels: laid out per version and scanned mode, on first scan ----

/// The modes of `servable` whose lane panel a scan has laid out.
fn built_panels(servable: &ServableModel) -> Vec<usize> {
    (0..servable.model.order())
        .filter(|&m| servable.panels().built(m).is_some())
        .collect()
}

#[test]
fn lane_panels_are_laid_out_per_version_and_scanned_mode_on_first_scan() {
    let engine = ServeEngine::start(ServeConfig {
        cache_capacity: 0, // every scan computes
        ..Default::default()
    });
    let model = KruskalModel {
        lambda: vec![1.0, -0.5, 2.0],
        factors: vec![
            Matrix::random(40, 3, 71),
            Matrix::random(20, 3, 72),
            Matrix::random(24, 3, 73),
        ],
    };
    assert_eq!(engine.publish("m", model.clone()), 1);
    let v1 = engine.registry().get("m", 1).unwrap();
    assert_eq!(
        built_panels(&v1),
        [0usize; 0],
        "a fresh version holds no panel"
    );
    let root = CancelToken::new();
    let ask = |version: u64, query: Query| {
        engine
            .query("m", version, query, None, &root, || false)
            .expect("query should succeed")
    };

    for coords in [vec![0, 0, 0], vec![39, 19, 23, 1, 2, 3]] {
        ask(1, Query::Entry { coords });
    }
    assert_eq!(built_panels(&v1), [0usize; 0], "entries lay out no panel");

    let fixed = vec![5, 7];
    match ask(
        1,
        Query::TopK {
            mode: 1,
            k: 4,
            fixed: fixed.clone(),
        },
    ) {
        QueryResult::TopK(got) => {
            assert_pairs_eq(&got, &oracle_topk(&model, 1, 4, &fixed), "top-k")
        }
        other => panic!("expected top-k, got {other:?}"),
    }
    assert_eq!(
        built_panels(&v1),
        [1],
        "a top-k lays out its mode's panel only"
    );

    match ask(1, Query::Slice { mode: 0, index: 3 }) {
        QueryResult::Slice(got) => assert_bits_eq(&got, &oracle_slice(&model, 0, 3), "slice"),
        other => panic!("expected slice, got {other:?}"),
    }
    assert_eq!(
        built_panels(&v1),
        [1, 2],
        "a mode-0 slice scans the last free mode"
    );
    ask(
        1,
        Query::TopK {
            mode: 1,
            k: 2,
            fixed: vec![1, 1],
        },
    );
    ask(1, Query::Slice { mode: 1, index: 0 });
    assert_eq!(v1.panels().builds(), 2, "a panel is laid out once");
    let bytes = v1.panels().built(2).expect("built").bytes();
    assert!(
        bytes <= 24 * 3 * 8,
        "a panel is at most its factor ({bytes} B)"
    );

    // A republished name's new version starts with panels of its own.
    assert_eq!(engine.publish("m", model.clone()), 2);
    let v2 = engine.registry().get("m", 2).unwrap();
    assert_eq!(built_panels(&v2), [0usize; 0]);
    ask(
        2,
        Query::TopK {
            mode: 0,
            k: 3,
            fixed: vec![0, 0],
        },
    );
    assert_eq!(
        (built_panels(&v1), built_panels(&v2)),
        (vec![1, 2], vec![0])
    );

    // Evicting a version drops its panels with its last `Arc`.
    let gone = Arc::downgrade(&v1);
    drop(v1);
    assert_eq!(engine.evict("m", 1), 1);
    assert!(
        gone.upgrade().is_none(),
        "an evicted version's panels outlive it"
    );
    engine.shutdown();
}

#[test]
fn concurrent_first_scans_lay_out_a_panel_once() {
    const CALLERS: usize = 4;
    let engine = ServeEngine::start(ServeConfig {
        cache_capacity: 0,
        ..Default::default()
    });
    let model = KruskalModel {
        lambda: vec![0.5; 8],
        factors: vec![
            Matrix::random(4096, 8, 81),
            Matrix::random(6, 8, 82),
            Matrix::random(5, 8, 83),
        ],
    };
    engine.publish("m", model.clone());
    let go = std::sync::Barrier::new(CALLERS);
    std::thread::scope(|scope| {
        for caller in 0..CALLERS as u32 {
            let (engine, model, go) = (&engine, &model, &go);
            scope.spawn(move || {
                let fixed = vec![caller, caller];
                let root = CancelToken::new();
                go.wait();
                let query = Query::TopK {
                    mode: 0,
                    k: 5,
                    fixed: fixed.clone(),
                };
                match engine.query("m", 0, query, None, &root, || false) {
                    Ok(QueryResult::TopK(got)) => {
                        assert_pairs_eq(&got, &oracle_topk(model, 0, 5, &fixed), "top-k")
                    }
                    other => panic!("expected top-k, got {other:?}"),
                }
            });
        }
    });
    let servable = engine.registry().get("m", 0).unwrap();
    assert_eq!(
        servable.panels().builds(),
        1,
        "four first scans, one layout"
    );
    assert_eq!(built_panels(&servable), [0]);
    engine.shutdown();
}
