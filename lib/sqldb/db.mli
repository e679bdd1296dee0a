(** The embeddable SQL database — public API.

    This is the repository's SQLite stand-in (paper §V-C): an embedded
    engine with dynamic typing, rowid tables, secondary indexes, ACID
    transactions via a rollback journal, and a VFS seam ({!Svfs}) that
    lets the same engine run over host files, memory, WASI files, or
    encrypted protected files.

    {2 Supported SQL}

    [CREATE TABLE] (column types INTEGER/TEXT/REAL/BLOB, INTEGER PRIMARY
    KEY as rowid alias, NOT NULL, DEFAULT), [CREATE [UNIQUE] INDEX],
    [DROP TABLE/INDEX], [INSERT] (multi-row, column lists), [SELECT]
    (WHERE, inner JOIN, GROUP BY + HAVING, aggregates
    count/sum/avg/total/min/max, ORDER BY, DISTINCT, LIMIT/OFFSET),
    [UPDATE], [DELETE], [BEGIN/COMMIT/ROLLBACK], [PRAGMA cache_size],
    [ANALYZE] (row counts into [stat1], per-column distinct/null counts
    into [stat_col], equi-depth histograms into [stat_hist]), [VACUUM],
    and [EXPLAIN [ANALYZE] <stmt>] (the operator tree with planner
    estimates, and — under ANALYZE — per-operator actuals).

    Point and range queries on the rowid / INTEGER PRIMARY KEY and
    equality/range lookups on a single-column index prefix use the
    B-trees; everything else scans. *)

exception Sql_error of string

type t = Catalog.db

type result = Executor.result = {
  columns : string list;
  rows : Value.t list list;
  affected : int;
}

val open_db :
  ?vfs:Svfs.t -> ?cache_pages:int -> ?hooks:Pager.hooks ->
  ?obs:Twine_obs.Obs.t -> string -> t
(** [open_db path] opens (creating if needed) a database. [":memory:"]
    uses a private in-memory VFS. [cache_pages] is the page-cache
    capacity in 4 KiB pages (default 2048, i.e. SQLite's 8 MiB).
    [hooks] observe page reads/writes/accesses for cost accounting;
    [obs] additionally records pager I/O and cache counters
    ([sqldb.page_read] / [sqldb.page_write] / [sqldb.cache.*] /
    [sqldb.journal_write]) into a telemetry registry. *)

val close : t -> unit
(** Rolls back any open transaction and releases the file. *)

val exec : t -> string -> result
(** Execute one or more ;-separated statements; returns the last
    statement's result. Modifications outside an explicit transaction
    are wrapped in an automatic one.
    @raise Sql_error on semantic errors (missing table, constraint
    violation, ...); @raise Parser.Error on syntax errors. *)

val query : t -> string -> Value.t list list
(** [query t sql] = [(exec t sql).rows]. *)

val query_one : t -> string -> Value.t
(** First column of the single result row.
    @raise Sql_error if the query does not yield exactly one row. *)

val last_insert_rowid : t -> int64

val work : t -> int
(** Abstract CPU work units accumulated since the last {!reset_work} —
    the quantity TWINE's benchmark variants charge at the calibrated
    Wasm slowdown factor. *)

val reset_work : t -> unit
(** Zeroes the work meter and drops the accumulated statement
    {!profiles}. *)

val pager : t -> Pager.t
(** The underlying pager (statistics, cache-size control). *)

(** {2 Per-operator observability}

    Every executed statement records a {!profile}: the flattened
    operator tree (preorder) with per-operator rows-in/out, loop counts,
    pager page deltas and self work, plus the statement's total work and
    the overhead work that landed outside any operator. By construction
    [pr_total_work = sum os_work + pr_overhead_work] — the zero-residue
    conservation law {!audit} states and the bench gates at tolerance 0. *)

type opstat = Catalog.opstat = {
  os_depth : int;
  os_name : string;
  os_detail : string;
  os_est_rows : int option;
  os_rows_in : int;
  os_rows_out : int;
  os_loops : int;
  os_reads : int;
  os_writes : int;
  os_work : int;
}

type profile = Catalog.profile = {
  pr_stmt : string;
  pr_ops : opstat list;
  pr_overhead_work : int;
  pr_total_work : int;
}

val profiles : t -> profile list
(** Statement profiles recorded since the last {!reset_work}, in
    execution order. The work totals partition {!work} exactly. *)

val last_profile : t -> profile option

val audit : profile -> Twine_obs.Audit.t
(** The statement's conservation law, work = operators + overhead: one
    part per operator (preorder, named by [os_name]) and one for the
    overhead. *)

val slice_ns : total_ns:int -> int list -> int list
(** [slice_ns ~total_ns works] splits a nanosecond booking across work
    shares by cumulative rounding: non-negative slices that sum to
    [total_ns] exactly (the residue-free attribution used for the
    [sqldb.op.*] charges). *)

val set_ns_per_work : t -> float -> unit
(** Installs a ns-per-work-unit calibration hint; when positive,
    [EXPLAIN ANALYZE] output gains a [cycles=..ns] column. *)
