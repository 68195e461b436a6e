//! The pinned API: every program item the harness touches.
//!
//! No other file of this crate names `splatt::` — they import from here.
//! A change to one of these signatures is a change to the benchmark, so
//! the simplification sweep (ROADMAP item 3) can read this file to see
//! which signatures the measuring stick holds. The same list, with the
//! metric each item feeds, is in `bench/README.md`.

// -- tensor: generators, the COO container, the sort the CSF build runs
pub use splatt::tensor::sort::sort_by_perm;
pub use splatt::tensor::synth::{planted_dense, power_law, NELL2, YELP};
pub use splatt::tensor::SparseTensor;

// -- csf + mttkrp: the representation and the kernel it feeds
pub use splatt::core::mttkrp::{mttkrp, uses_locks};
pub use splatt::core::{CsfSet, MatrixAccess, MttkrpConfig, MttkrpWorkspace};

// -- dense: the four routines of Algorithm 1 besides the MTTKRP
pub use splatt::dense::{
    hadamard_assign, mat_ata, normalize_columns, solve_normals, MatNorm, Matrix,
};

// -- cpals: the driver and its model
pub use splatt::core::{cp_als, save_model, CpalsOptions, KruskalModel};
pub use splatt::par::{Routine, TaskTeam, TimerRegistry};

// -- store: delta codec, WAL, atomic publish, manifest, counters
pub use splatt::store::{
    counters_snapshot, decode_delta, encode_delta, publish_artifact, Manifest, Wal, WalOptions,
};

// -- refresh: the online engine
pub use splatt::core::refresh::{
    RefreshEngine, RefreshOptions, KEY_REFRESH_MODEL, KEY_REFRESH_ROUND, KEY_REFRESH_SEQ,
    REFRESH_MODEL_FILE,
};

// -- query kernels (also the oracle every served answer is checked against)
pub use splatt::core::query::{entry_values, slice_values, top_k, QueryArena};

// -- engine + protocol + net front end
pub use splatt::guard::CancelToken;
pub use splatt::serve::protocol::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
    Request, RequestBody, Response,
};
pub use splatt::serve::{
    serve_with, Client, FrontEndConfig, Query, QueryResult, ServeConfig, ServeEngine, ServerHandle,
};

// -- the workspace's std-only JSON reader (result files, BENCHMARK.json)
pub use splatt::probe::json::{parse as parse_json, write_escaped, Value as Json};
